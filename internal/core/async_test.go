package core

import (
	"testing"
	"time"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/tpch"
)

// The tests that judge a whole recorded series of a TPC-H plan live in
// async_series_test.go (package core_test): they use coretest's goroutine
// leak check, and coretest imports this package.

// TestAsyncMonitorStopWithoutStart: Stop before Start must be a no-op.
func TestAsyncMonitorStopWithoutStart(t *testing.T) {
	r := intRel("r", "a", seq(5))
	m := NewAsyncMonitor(exec.NewScan(r), 0, Dne{})
	m.Stop()
	if len(m.Samples) != 0 {
		t.Fatalf("samples = %d, want 0", len(m.Samples))
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

// TestAsyncMonitorOnSample: the streaming hook must see every recorded
// sample, in order, including the final at-EOF one — it is what lets a
// serving layer fan live estimates out to clients while the query runs.
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
	// Stop has returned: the sampler goroutine is joined, streamed is ours.
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

// TestCaptureIsOneLedgerRead: a capture's Curr is the sum of its own node
// view's Returned, so the frames built from it are single instants — held
// here with the capture racing a run of TPC-H Q1 (a filtered lineitem scan
// under an aggregate) on another goroutine, and on every frame the async
// sampler publishes, the final one (built after Stop) included.
func TestCaptureIsOneLedgerRead(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.01, Z: 1, Seed: 1})
	q1 := func() exec.Operator {
		op, err := tpch.BuildQuery(cat, 1)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	m := NewAsyncMonitor(q1(), 20*time.Microsecond, Dne{}, Pmax{}, Safe{})
	frames := 0
	check := func(f Frame) {
		frames++
		var sum int64
		for _, n := range f.Nodes {
			sum += n.Calls
		}
		if sum != f.Calls {
			t.Errorf("frame at %d calls: nodes sum to %d", f.Calls, sum)
		}
	}
	m.OnSample = func(s Sample) { check(m.Frame(s)) }
	check(m.Frame(m.Initial()))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	check(m.Frame(m.Samples[len(m.Samples)-1]))
	if frames < 3 {
		t.Fatalf("%d frames checked, want the initial, at least one sample and the final", frames)
	}

	op := q1()
	tr := NewTracker(op)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
			t.Error(err)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := tr.Capture()
		var sum int64
		for _, n := range tr.nodes {
			sum += n.Returned
		}
		if s.Curr != sum {
			t.Fatalf("capture: Curr %d, its node view sums to %d", s.Curr, sum)
		}
	}
}
