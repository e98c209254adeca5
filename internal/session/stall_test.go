package session

import (
	"testing"
	"time"

	"sqlprogress/internal/exec"
)

// TestStallIsAGapBetweenEvents holds a running session at an Instrument
// gate, so it publishes nothing past frame 0, for StallAfter: Info reads it
// stalled while the gap lasts, and the gap is counted once, by the event
// that ends it. The run samples at every credit, so released and held again
// inside its second call it has just published, and is not stalled.
func TestStallIsAGapBetweenEvents(t *testing.T) {
	const stallAfter = 100 * time.Millisecond
	m := New(nil, Config{SampleInterval: time.Nanosecond, StallAfter: stallAfter})
	defer m.Close()
	start, mid, atMid := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s, err := m.SubmitPlan(rowsPlan(100), "held", SubmitOptions{Instrument: func(ctx *exec.Ctx) {
		ctx.Inject = func(calls int64) error {
			if calls == 2 {
				close(atMid)
				<-mid
			}
			return nil
		}
		<-start
	}})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := s.Subscribe()
	defer unsub()
	if f0 := next(t, ch); f0.Seq != 1 || f0.Calls != 0 {
		t.Fatalf("first event: %+v, want frame 0", f0)
	}

	// Held before its first call: no credit, so no event, for StallAfter.
	time.Sleep(stallAfter)
	if in := s.Info(); !in.Stalled || in.State != StateRunning {
		t.Fatalf("held for %v past frame 0: state %s, stalled %v", stallAfter, in.State, in.Stalled)
	}
	if n := m.Metrics().StallEvents; n != 0 {
		t.Fatalf("StallEvents = %d while the stall lasts, want 0: an episode counts when it ends", n)
	}

	close(start)
	<-atMid
	if p := next(t, ch); p.Calls != 1 || p.State != StateRunning {
		t.Fatalf("event after the release: %+v, want call 1's sample", p)
	}
	if in := s.Info(); in.Stalled {
		t.Fatalf("stalled right after publishing call 1's sample: %+v", in)
	}
	if n := m.Metrics().StallEvents; n != 1 {
		t.Fatalf("StallEvents = %d after the stall ended, want 1", n)
	}

	close(mid)
	var last Progress
	for p := range ch {
		last = p
	}
	if !last.Final || last.State != StateFinished {
		t.Fatalf("last event: %+v, want the final one, finished", last)
	}
	if in := s.Info(); in.Stalled {
		t.Fatalf("finished session reads stalled: %+v", in)
	}
	if n := m.Metrics().StallEvents; n < 1 {
		t.Fatalf("StallEvents = %d, want >= 1", n)
	}
}
