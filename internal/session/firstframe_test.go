package session

import (
	"testing"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
)

// twoGates holds a session's run twice: before its first counted call (start)
// and inside that call (mid; atMid closes when the run gets there). Between
// the two Curr goes 0 → 1 and nowhere else.
type twoGates struct {
	start, mid, atMid chan struct{}
}

func newTwoGates() *twoGates {
	return &twoGates{start: make(chan struct{}), mid: make(chan struct{}), atMid: make(chan struct{})}
}

func (g *twoGates) instrument(ctx *exec.Ctx) {
	ctx.Inject = func(calls int64) error {
		if calls == 1 {
			close(g.atMid)
			<-g.mid
		}
		return nil
	}
	<-g.start
}

// next reads one event or fails the test.
func next(t *testing.T, ch <-chan Progress) Progress {
	t.Helper()
	select {
	case p, open := <-ch:
		if !open {
			t.Fatal("stream closed early")
		}
		return p
	case <-time.After(10 * time.Second):
		t.Fatal("no event")
	}
	return Progress{}
}

// TestFirstFrameContract pins the stream a subscriber sees down, with periodic
// sampling out of the picture (a 24 h interval): frame 0 the moment the
// session runs, replayed to a subscriber that attaches later, the at-stop
// sample, the final event — and nothing else: attaching takes no sample. The
// run is held at gates, not timed, so every instant is the test's choice.
func TestFirstFrameContract(t *testing.T) {
	const rows = 500
	m := New(nil, Config{MaxConcurrent: 1, SampleInterval: 24 * time.Hour})
	defer m.Close()
	block := make(chan struct{})
	if _, err := m.SubmitPlan(rowsPlan(8), "blocker", SubmitOptions{Instrument: gateInstrument(block)}); err != nil {
		t.Fatal(err)
	}
	g := newTwoGates()
	s, err := m.SubmitPlan(rowsPlan(rows), "gated", SubmitOptions{Instrument: g.instrument})
	if err != nil {
		t.Fatal(err)
	}

	// Attached while queued (nothing to replay): frame 0 arrives when the
	// session starts, before its first call.
	if p := s.Info().Progress; p != nil {
		t.Fatalf("queued session has progress: %+v", p)
	}
	ch1, unsub1 := s.Subscribe()
	defer unsub1()
	close(block)
	f0 := next(t, ch1)
	if f0.Seq != 1 || f0.Calls != 0 || f0.State != StateRunning || f0.Final {
		t.Fatalf("frame 0: %+v", f0)
	}
	if f0.LB > rows || f0.UB < rows || f0.Lo != 0 || f0.Hi != 0 {
		t.Fatalf("frame 0 bounds: lb %d ub %d lo %v hi %v, total %d", f0.LB, f0.UB, f0.Lo, f0.Hi, rows)
	}
	if len(f0.Nodes) != 1 || f0.Nodes[0].Calls != 0 {
		t.Fatalf("frame 0 nodes: %+v", f0.Nodes)
	}
	for _, name := range []string{"dne", "pmax", "safe"} {
		if est, ok := f0.Estimates[name]; !ok || est != 0 {
			t.Fatalf("frame 0 estimate %s = %v (present %v), want 0", name, est, ok)
		}
	}
	if p := s.Info().Progress; p == nil || p.Seq != 1 {
		t.Fatalf("Info().Progress of a session that has just started: %+v", p)
	}

	// Held inside the first call: a second subscriber is replayed frame 0,
	// and its attaching publishes nothing, to either.
	close(g.start)
	<-g.atMid
	ch2, unsub2 := s.Subscribe()
	defer unsub2()
	if p := next(t, ch2); p.Seq != 1 || p.Calls != 0 {
		t.Fatalf("replayed to the second subscriber: %+v", p)
	}
	for who, ch := range []<-chan Progress{ch1, ch2} {
		select {
		case p := <-ch:
			t.Fatalf("subscriber %d, event while the run is held: %+v", who+1, p)
		default:
		}
	}

	close(g.mid)
	for who, ch := range []<-chan Progress{ch1, ch2} {
		atStop, final := next(t, ch), next(t, ch)
		if atStop.Seq != 2 || atStop.Calls != rows || atStop.Final || atStop.Lo <= 0 || atStop.Lo > atStop.Hi {
			t.Fatalf("subscriber %d, at-stop sample: %+v", who+1, atStop)
		}
		if final.Seq != 3 || final.Calls != rows || !final.Final || final.State != StateFinished {
			t.Fatalf("subscriber %d, final event: %+v", who+1, final)
		}
		if p, open := <-ch; open {
			t.Fatalf("subscriber %d, event after the final one: %+v", who+1, p)
		}
	}

	// Frame 0 was a session event, not a monitor sample.
	smp := s.Samples()
	if len(smp) != 1 || smp[0].Calls != rows {
		t.Fatalf("samples: %+v", smp)
	}

	// A finished session still answers with its final event alone.
	ch3, unsub3 := s.Subscribe()
	defer unsub3()
	if p, open := <-ch3; !open || !p.Final || p.Seq != 3 {
		t.Fatalf("late subscriber: %+v open=%v", p, open)
	}
	if p, open := <-ch3; open {
		t.Fatalf("late subscriber, second event: %+v", p)
	}
}

// TestFrameZeroEveryEstimator: on a real plan, every registered estimator has
// a value at Curr = 0 that JSON can carry (no NaN, no Inf), frame 0 lists the
// whole plan, its static bounds hold the total, and no sample sits at 0.
func TestFrameZeroEveryEstimator(t *testing.T) {
	cat := testCatalog(t)
	names := core.EstimatorNames()
	m := New(cat, Config{SampleInterval: 24 * time.Hour, Estimators: names})
	defer m.Close()
	g := newTwoGates()
	s, err := m.Submit("SELECT COUNT(*) FROM orders, customer WHERE o_custkey = c_custkey", SubmitOptions{Instrument: g.instrument})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := s.Subscribe()
	defer unsub()
	f0 := next(t, ch)
	if f0.Seq != 1 || f0.Calls != 0 || len(f0.Estimates) != len(names) {
		t.Fatalf("frame 0: %+v", f0)
	}
	for _, name := range names {
		if est, ok := f0.Estimates[name]; !ok || !(est >= 0 && est <= 1) {
			t.Fatalf("frame 0 estimate %s = %v (present %v)", name, est, ok)
		}
	}
	if len(f0.Nodes) < 3 {
		t.Fatalf("frame 0 carries %d nodes, want the whole plan", len(f0.Nodes))
	}
	close(g.start)
	close(g.mid)
	var last Progress
	for p := range ch {
		last = p
	}
	if !last.Final || last.LB > last.Calls || f0.LB > last.Calls || f0.UB < last.Calls {
		t.Fatalf("final %+v against frame 0 [%d, %d]", last, f0.LB, f0.UB)
	}
	for _, smp := range s.Samples() {
		if smp.Calls <= 0 {
			t.Fatalf("sample with Calls = %d", smp.Calls)
		}
	}
}
