package core_test

import (
	"testing"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/coretest"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/index"
	"sqlprogress/internal/tpch"
)

// checkSeries holds a concurrently-captured series of a completed run to the
// one definition of a valid series, core.Series.Check: Calls strictly
// increasing, hard bounds and UBTight straddling total(Q) at every sample
// (the soundness claim for sampling against live atomic counters), monotone
// bounds, every estimate within [0, 1], and the series ending with the
// at-EOF sample.
func checkSeries(t *testing.T, label string, m *core.AsyncMonitor) {
	t.Helper()
	if len(m.Samples) == 0 {
		t.Fatalf("%s: no samples", label)
	}
	if err := core.SeriesOf(label, &m.SampleSet).Check(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncMonitorSamplesRunningTPCHPlan is the acceptance test for the
// off-thread sampler: an AsyncMonitor concurrently samples a running TPC-H
// plan (run under -race in CI). Q21 exercises the worst of the plan zoo —
// semi/anti joins and rescans — while the sampler races the executor.
func TestAsyncMonitorSamplesRunningTPCHPlan(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	op, err := tpch.BuildQuery(cat, 21)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewAsyncMonitor(op, 50*time.Microsecond, core.Dne{}, core.Pmax{}, core.Safe{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	checkSeries(t, "tpch-q21", m)
}

// TestAsyncMonitorFinalSampleAlways: with an interval far longer than the
// query, no periodic tick ever fires — Stop must still record the at-EOF
// observation so the series ends at progress 1.0 (and Series reads it back).
func TestAsyncMonitorFinalSampleAlways(t *testing.T) {
	j := example1INLJoin(50)
	m := core.NewAsyncMonitor(j, time.Hour, core.Dne{}, core.Safe{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Samples) != 1 {
		t.Fatalf("samples = %d, want exactly the final one", len(m.Samples))
	}
	checkSeries(t, "final-only", m)
	pts, err := m.Series("safe")
	if err != nil {
		t.Fatal(err)
	}
	if got := pts[len(pts)-1]; got.Actual != 1 || got.Est != 1 {
		t.Fatalf("final point = %+v, want (1,1)", got)
	}
}

// TestAsyncMonitorInitialAndPoke: Initial describes the plan before it runs
// without recording anything, and a Poke makes a sampler whose interval never
// elapses take a sample at once — unless Curr has not moved since the last.
func TestAsyncMonitorInitialAndPoke(t *testing.T) {
	j := example1INLJoin(50)
	m := core.NewAsyncMonitor(j, time.Hour, core.Dne{}, core.Safe{})
	sampled := make(chan core.Sample, 4)
	m.OnSample = func(s core.Sample) { sampled <- s }

	first := m.Initial(core.RegisteredEstimators()...)
	if first.Calls != 0 || first.LB < 1 || first.LB > first.UBTight || first.UBTight > first.UB {
		t.Fatalf("initial sample %+v", first)
	}
	for i, e := range first.Estimates {
		if !(e >= 0 && e <= 1) {
			t.Fatalf("estimator %d at Curr = 0: %v", i, e)
		}
	}
	if len(m.Samples) != 0 {
		t.Fatalf("Initial recorded %d samples", len(m.Samples))
	}

	// A poke while Curr is still 0 is dropped. It is sent to a sampler whose
	// plan never runs, so it is handled at Curr = 0 whenever the sampler
	// gets to it; a live run would race it.
	idle := core.NewAsyncMonitor(example1INLJoin(50), time.Hour, core.Dne{})
	early := make(chan core.Sample, 2)
	idle.OnSample = func(s core.Sample) { early <- s }
	poke := core.SyncPokes(idle)
	idle.Start(exec.NewCtx())
	poke()
	poke() // returns once the first poke was handled
	if len(early) != 0 {
		t.Fatalf("poke at Curr = 0 recorded a sample at Calls = %d", (<-early).Calls)
	}
	idle.Stop()

	ctx := exec.NewCtx()
	m.Start(ctx)
	if _, err := exec.RunBatch(ctx, j); err != nil {
		t.Fatal(err)
	}
	total := ctx.Calls()
	if total < first.LB || total > first.UB {
		t.Fatalf("total %d outside the initial [%d, %d]", total, first.LB, first.UB)
	}
	m.Poke()
	if s := <-sampled; s.Calls != total {
		t.Fatalf("poked sample at Calls = %d, want %d", s.Calls, total)
	}
	m.Poke() // same instant again: dropped
	m.Stop() // and so is the at-EOF sample
	if len(m.Samples) != 1 {
		t.Fatalf("samples = %d, want the one poked sample", len(m.Samples))
	}
	checkSeries(t, "poked", m)
}

// example1INLJoin is the paper's Example 1 plan, R1(a) ⋈INL R2(b) over a hash
// index on R2.b, with both relations holding 0..n-1: core_test.go's
// example1Plan rebuilt from exported pieces for this external package.
func example1INLJoin(n int64) *exec.INLJoin {
	r1 := datagen.IntRelation("r1", "a", datagen.Sequence(n))
	r2 := datagen.IntRelation("r2", "b", datagen.Sequence(n))
	scan := exec.NewScanWithOrder(r1, nil)
	return exec.NewINLJoin(scan, index.BuildHash("hx", r2, 0), expr.NewCol(scan.Schema(), "r1", "a"), exec.InnerJoin)
}

// TestAsyncMonitorStopEndsSampler: Stop must join the sampler goroutine,
// whether the plan ran to completion or never started.
func TestAsyncMonitorStopEndsSampler(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	for _, run := range []bool{true, false} {
		op, err := tpch.BuildQuery(cat, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewAsyncMonitor(op, 50*time.Microsecond, core.Safe{})
		coretest.CheckNoGoroutineLeak(t, func() {
			// Pokes with no reader — before Start, after Stop, several in
			// a row — must neither block nor keep anything alive.
			m.Poke()
			m.Poke()
			if !run {
				m.Start(exec.NewCtx())
				m.Stop()
			} else if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			m.Poke()
			m.Poke()
		})
	}
}
