package core

import (
	"testing"
	"time"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/tpch"
)

// example1Join is the paper's Example 1 plan over n rows on each side.
func example1Join(n int64) *exec.INLJoin {
	j, _ := example1Plan(intRel("r1", "a", seq(n)), intRel("r2", "b", seq(n)), nil, nil, false)
	return j
}

// checkSeries holds a completed run's series to the one definition of a
// valid series, Series.Check: Calls strictly increasing, hard bounds and
// UBTight straddling total(Q) at every sample, monotone bounds, every
// estimate within [0, 1], and the series ending with the at-EOF sample.
func checkSeries(t *testing.T, label string, m *Monitor) {
	t.Helper()
	if len(m.Samples) == 0 {
		t.Fatalf("%s: no samples", label)
	}
	if err := SeriesOf(label, m).Check(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncMonitorSamplesRunningTPCHPlan: the wall-clock rule samples a
// running TPC-H plan at credits, and its series is valid. Q21 exercises the
// worst of the plan zoo — semi/anti joins and rescans.
func TestAsyncMonitorSamplesRunningTPCHPlan(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	op, err := tpch.BuildQuery(cat, 21)
	if err != nil {
		t.Fatal(err)
	}
	m := NewAsyncMonitor(op, 50*time.Microsecond, Dne{}, Pmax{}, Safe{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	checkSeries(t, "tpch-q21", m)
}

// TestAsyncMonitorFinalSampleAlways: with an interval far longer than the
// query, the clock rule never fires — Run must still record the at-EOF
// observation so the series ends at progress 1.0 (and SeriesAt reads it back).
func TestAsyncMonitorFinalSampleAlways(t *testing.T) {
	m := NewAsyncMonitor(example1Join(50), time.Hour, Dne{}, Safe{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Samples) != 1 {
		t.Fatalf("samples = %d, want exactly the final one", len(m.Samples))
	}
	checkSeries(t, "final-only", m)
	pts := m.SeriesAt(1) // safe
	if got := pts[len(pts)-1]; got.Actual != 1 || got.Est != 1 {
		t.Fatalf("final point = %+v, want (1,1)", got)
	}
}

// TestAsyncMonitorInitial: Initial describes the plan before it runs — Curr
// = 0, the static bounds, every registered estimator in [0, 1] — without
// recording anything, and the run's total lies inside those bounds.
func TestAsyncMonitorInitial(t *testing.T) {
	m := NewAsyncMonitor(example1Join(50), time.Hour, Dne{}, Safe{})
	first := m.Initial(RegisteredEstimators()...)
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
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if total := m.Total(); total < first.LB || total > first.UB {
		t.Fatalf("total %d outside the initial [%d, %d]", total, first.LB, first.UB)
	}
}

// TestMonitorFinalSampleAtCompletion: the inline Monitor's Run must append
// the at-EOF sample even when the periodic hook never fires at total(Q), so
// inline series also end at progress 1.0.
func TestMonitorFinalSampleAtCompletion(t *testing.T) {
	r1 := intRel("r1", "a", seq(40))
	r2 := intRel("r2", "b", seq(40))
	j, _ := example1Plan(r1, r2, nil, nil, false)
	m := NewMonitor(j, 1_000_000, Dne{}, Pmax{}, Safe{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Samples) != 1 {
		t.Fatalf("samples = %d, want exactly the final one", len(m.Samples))
	}
	last := m.Samples[0]
	if last.Calls != m.Total() {
		t.Fatalf("final sample at %d calls, want total %d", last.Calls, m.Total())
	}
	for j, est := range last.Estimates {
		if m.Estimators[j].Name() == "pmax" && est != 1 {
			t.Fatalf("final pmax = %v, want 1", est)
		}
	}
}

// TestMonitorFinalSampleNotDuplicated: when the sampling period divides
// total(Q) exactly, the hook already captured the at-EOF instant and Finish
// must not record it twice.
func TestMonitorFinalSampleNotDuplicated(t *testing.T) {
	r := intRel("r", "a", seq(10))
	sc := exec.NewScan(r)
	m := NewMonitor(sc, 1, Dne{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	total := m.Total()
	if total < 10 {
		t.Fatalf("total = %d, want at least one call per row", total)
	}
	if n := len(m.Samples); int64(n) != total {
		t.Fatalf("samples = %d, want %d (one per call, no duplicate final)", n, total)
	}
	for i := 1; i < len(m.Samples); i++ {
		if m.Samples[i].Calls == m.Samples[i-1].Calls {
			t.Fatalf("duplicate sample at %d calls", m.Samples[i].Calls)
		}
	}
}

// TestAsyncMonitorOnSample: under the wall-clock rule the streaming hook must
// see every recorded sample, in order, including the final at-EOF one — it
// is what lets a serving layer fan live estimates out to clients while the
// query runs.
func TestAsyncMonitorOnSample(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	op, err := tpch.BuildQuery(cat, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewAsyncMonitor(op, 50*time.Microsecond, Dne{}, Pmax{}, Safe{})
	var streamed []Sample
	m.OnSample = func(s Sample) { streamed = append(streamed, s) }
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(m.Samples) {
		t.Fatalf("streamed %d samples, recorded %d", len(streamed), len(m.Samples))
	}
	for i := range streamed {
		if streamed[i].Calls != m.Samples[i].Calls {
			t.Fatalf("sample %d: streamed calls %d != recorded %d", i, streamed[i].Calls, m.Samples[i].Calls)
		}
	}
	last := streamed[len(streamed)-1]
	if last.Calls != m.Total() {
		t.Fatalf("last streamed sample at %d calls, total %d", last.Calls, m.Total())
	}
}
