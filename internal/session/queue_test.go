package session

import (
	"errors"
	"testing"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// rowsPlan builds a fresh Values leaf delivering n rows.
func rowsPlan(n int) exec.Operator {
	sch := schema.New(schema.Column{Name: "v", Type: sqlval.KindInt})
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{sqlval.Int(int64(i))}
	}
	return exec.NewValues(sch, rows)
}

// gateInstrument blocks the session's first counted call until gate closes,
// holding its run slot without burning CPU.
func gateInstrument(gate chan struct{}) func(*exec.Ctx) {
	return func(ctx *exec.Ctx) {
		ctx.Inject = func(calls int64) error {
			if calls == 1 {
				<-gate
			}
			return nil
		}
	}
}

// TestShedOrderingUnderFullFIFO pins down admission behavior at the edge:
// with the slot held and the queue full every submission sheds, canceling a
// queued session frees exactly one queue slot, and the queue stays FIFO —
// a later admission never overtakes an earlier one.
func TestShedOrderingUnderFullFIFO(t *testing.T) {
	m := New(nil, Config{MaxConcurrent: 1, MaxQueue: 2, SampleInterval: time.Millisecond})
	defer m.Close()

	gate := make(chan struct{})
	running, err := m.SubmitPlan(rowsPlan(8), "gated", SubmitOptions{Instrument: gateInstrument(gate)})
	if err != nil {
		t.Fatal(err)
	}
	qB, err := m.SubmitPlan(rowsPlan(8), "queued-b", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qC, err := m.SubmitPlan(rowsPlan(8), "queued-c", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.SubmitPlan(rowsPlan(8), "shed", SubmitOptions{}); !errors.Is(err, ErrShed) {
			t.Fatalf("submit %d with full queue: err = %v, want ErrShed", i, err)
		}
	}
	if mt := m.Metrics(); mt.Shed != 3 || mt.Queued != 2 || mt.Active != 1 {
		t.Fatalf("metrics: %+v", mt)
	}

	// Canceling a queued session frees exactly one queue slot.
	if _, err := m.Cancel(qB.id, ""); err != nil {
		t.Fatal(err)
	}
	qF, err := m.SubmitPlan(rowsPlan(8), "queued-f", SubmitOptions{})
	if err != nil {
		t.Fatalf("submit after queue-cancel: %v", err)
	}
	if _, err := m.SubmitPlan(rowsPlan(8), "shed", SubmitOptions{}); !errors.Is(err, ErrShed) {
		t.Fatalf("refilled queue must shed again, err = %v", err)
	}

	close(gate)
	for _, s := range []*Session{running, qC, qF} {
		if st := waitTerminal(t, s); st != StateFinished {
			t.Fatalf("%s: state %s, err %v", s.id, st, s.Info().Error)
		}
	}
	// FIFO: with one run slot, the earlier admission must have started
	// strictly before the one admitted after the cancel.
	cStart, fStart := qC.Info().Started, qF.Info().Started
	if cStart == nil || fStart == nil || !cStart.Before(*fStart) {
		t.Fatalf("queue not FIFO: queued-c started %v, queued-f started %v", cStart, fStart)
	}
}

// TestCancelLatencyMetrics distinguishes the two cancel paths: a
// canceled-while-queued session never ran, so no request-to-stop latency is
// recorded; a mid-flight cancel records one.
func TestCancelLatencyMetrics(t *testing.T) {
	m := New(nil, Config{MaxConcurrent: 1, MaxQueue: 2, SampleInterval: 100 * time.Microsecond})
	defer m.Close()

	gate := make(chan struct{})
	running, err := m.SubmitPlan(rowsPlan(8), "gated", SubmitOptions{Instrument: gateInstrument(gate)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.SubmitPlan(rowsPlan(8), "queued", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.id, "never ran"); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued state = %s", st)
	}
	mt := m.Metrics()
	if mt.CancelRequests != 1 || mt.CancelObserved != 0 {
		t.Fatalf("queued cancel must not record stop latency: %+v", mt)
	}
	if queued.Samples() != nil {
		t.Fatalf("never-ran session has samples")
	}

	// Mid-flight cancel: wait for the run to actually be underway (a cancel
	// landing before the executor attaches is the no-latency queued path),
	// then cancel while it is blocked on the gate inside a counted call.
	waitState(t, running, func(st State) bool { return st == StateRunning })
	if _, err := m.Cancel(running.id, "mid-flight"); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if st := waitTerminal(t, running); st != StateCanceled {
		t.Fatalf("running state = %s", st)
	}
	mt = m.Metrics()
	if mt.CancelRequests != 2 || mt.CancelObserved != 1 {
		t.Fatalf("mid-flight cancel must record stop latency: %+v", mt)
	}
	if mt.CancelLatencyAvg <= 0 || mt.CancelLatencyMax < mt.CancelLatencyAvg {
		t.Fatalf("latency aggregates: %+v", mt)
	}
}

// TestPublishLatestWins unit-tests the fan-out directly: a subscriber that
// drains late sees a strictly increasing, possibly gappy sequence that
// always includes the newest event — intermediate observations are
// droppable, the latest is not.
func TestPublishLatestWins(t *testing.T) {
	s := &Session{state: StateRunning, subs: make(map[int]*subscriber)}
	ch, unsub := s.Subscribe()
	defer unsub()

	const published = 40 // well past the 16-slot buffer
	s.mu.Lock()
	for i := 0; i < published; i++ {
		s.publishLocked(Progress{Frame: core.Frame{Calls: int64(i + 1)}, State: StateRunning})
	}
	s.mu.Unlock()

	var got []Progress
drain:
	for {
		select {
		case p := <-ch:
			got = append(got, p)
		default:
			break drain
		}
	}
	if len(got) == 0 || len(got) > 17 {
		t.Fatalf("drained %d events from a 16-slot buffer", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("sequence not increasing: %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
	if last := got[len(got)-1]; last.Seq != published {
		t.Fatalf("latest event lost: last seq %d, want %d", last.Seq, published)
	}
}

// TestFrozenSubscriberEvictedThenReattachedSeesFinal drives the fan-out's
// slow-consumer defense end to end at the unit level: a subscriber that
// never drains is evicted (closed without a final event, metrics counted),
// and a reattach — primed with the latest observation — still observes the
// session's final event.
func TestFrozenSubscriberEvictedThenReattachedSeesFinal(t *testing.T) {
	evictions := 0
	s := &Session{
		state:   StateRunning,
		subs:    make(map[int]*subscriber),
		onEvict: func() { evictions++ },
	}
	ch, unsub := s.Subscribe()
	defer unsub()

	// Freeze: publish past buffer + eviction threshold without reading.
	s.mu.Lock()
	i := 0
	for ; len(s.subs) > 0; i++ {
		if i > 1000 {
			s.mu.Unlock()
			t.Fatal("subscriber never evicted")
		}
		s.publishLocked(Progress{Frame: core.Frame{Calls: int64(i + 1)}, State: StateRunning})
	}
	s.mu.Unlock()
	if evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}
	// 16 buffered + 1 clean + evictAfter forced drops before eviction.
	if i < 16+evictAfter {
		t.Fatalf("evicted after only %d publishes", i)
	}

	// The evicted channel is closed; its buffered backlog must not contain
	// a final event.
	sawClose := false
	for {
		p, open := <-ch
		if !open {
			sawClose = true
			break
		}
		if p.Final {
			t.Fatalf("evicted subscriber got a final event: %+v", p)
		}
	}
	if !sawClose {
		t.Fatal("evicted channel not closed")
	}

	// Session ends (mirroring finishLocked's order: state first, then the
	// final publish).
	s.mu.Lock()
	s.state = StateCanceled
	s.publishLocked(Progress{Final: true, State: StateCanceled})
	s.mu.Unlock()

	// Reattach: the terminal session primes the final event and closes.
	ch2, unsub2 := s.Subscribe()
	defer unsub2()
	p, open := <-ch2
	if !open || !p.Final || p.State != StateCanceled {
		t.Fatalf("reattached consumer: open=%v p=%+v", open, p)
	}
	if _, open := <-ch2; open {
		t.Fatal("reattached channel not closed after final event")
	}
	if evictions != 1 {
		t.Fatalf("final publish counted as eviction: %d", evictions)
	}
}

// TestTerminalSessionLeavesTheGauges hammers submit → terminal → Metrics
// with one run slot and a second session queued behind the first: once a
// subscriber has seen a session's final event, Metrics no longer counts it
// Active, and the session queued behind it has left the queue.
func TestTerminalSessionLeavesTheGauges(t *testing.T) {
	m := New(nil, Config{MaxConcurrent: 1, SampleInterval: time.Millisecond})
	defer m.Close()
	waitFinal := func(s *Session) {
		ch, unsub := s.Subscribe()
		for range ch {
		}
		unsub()
	}
	for i := 0; i < 1000; i++ {
		first, err := m.SubmitPlan(rowsPlan(1), "first", SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		second, err := m.SubmitPlan(rowsPlan(1), "second", SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitFinal(first)
		if mt := m.Metrics(); mt.Active > 1 || mt.Queued != 0 {
			t.Fatalf("round %d, first session terminal: Active %d Queued %d, want <= 1 and 0", i, mt.Active, mt.Queued)
		}
		waitFinal(second)
		if mt := m.Metrics(); mt.Active != 0 || mt.Queued != 0 {
			t.Fatalf("round %d, both sessions terminal: Active %d Queued %d, want 0 and 0", i, mt.Active, mt.Queued)
		}
	}
}
