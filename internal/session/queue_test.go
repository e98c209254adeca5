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
	if st := queued.Summary().State; st != StateCanceled {
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
	if st := waitStarted(t, running); st != StateRunning {
		t.Fatalf("gated session's first event: state %s", st)
	}
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
	s := &Session{state: StateRunning, subs: make(map[int]chan Progress)}
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

// TestFrozenSubscriberKeepsItsFinalEvent drives the fan-out with a
// subscriber that reads nothing across 1 000 running publishes and the
// final one: it holds at most its 16 buffered events, stays subscribed, and
// when it reads again finds the final event last, then the close.
func TestFrozenSubscriberKeepsItsFinalEvent(t *testing.T) {
	s := &Session{state: StateRunning, subs: make(map[int]chan Progress)}
	ch, unsub := s.Subscribe()
	defer unsub()

	const running = 1000
	s.mu.Lock()
	for i := 0; i < running; i++ {
		s.publishLocked(Progress{Frame: core.Frame{Calls: int64(i + 1)}, State: StateRunning})
	}
	held, subscribed := len(ch), len(s.subs)
	// Session ends (mirroring finishLocked's order: state first, then the
	// final publish).
	s.state = StateFinished
	s.publishLocked(Progress{Final: true, State: StateFinished})
	s.mu.Unlock()
	if held > 16 || subscribed != 1 {
		t.Fatalf("after %d unread publishes: %d events held, %d subscribers, want <= 16 and 1", running, held, subscribed)
	}

	var got []Progress
	for p := range ch {
		got = append(got, p)
	}
	if len(got) == 0 || len(got) > 16 {
		t.Fatalf("frozen subscriber read %d events, want 1..16", len(got))
	}
	for _, p := range got[:len(got)-1] {
		if p.Final {
			t.Fatalf("final event before the last one: %+v", got)
		}
	}
	if last := got[len(got)-1]; !last.Final || last.State != StateFinished || last.Seq != running+1 {
		t.Fatalf("last event read: %+v, want the final one (seq %d)", last, running+1)
	}
}

// TestTerminalSessionLeavesTheGauges hammers submit → terminal → Metrics
// with one run slot and a second session queued behind the first: once a
// subscriber has seen a session's final event, Metrics no longer counts it
// Active, and the session queued behind it has left the queue.
func TestTerminalSessionLeavesTheGauges(t *testing.T) {
	m := New(nil, Config{MaxConcurrent: 1, SampleInterval: time.Millisecond})
	defer m.Close()
	for i := 0; i < 1000; i++ {
		first, err := m.SubmitPlan(rowsPlan(1), "first", SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		second, err := m.SubmitPlan(rowsPlan(1), "second", SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, first)
		if mt := m.Metrics(); mt.Active > 1 || mt.Queued != 0 {
			t.Fatalf("round %d, first session terminal: Active %d Queued %d, want <= 1 and 0", i, mt.Active, mt.Queued)
		}
		waitTerminal(t, second)
		if mt := m.Metrics(); mt.Active != 0 || mt.Queued != 0 {
			t.Fatalf("round %d, both sessions terminal: Active %d Queued %d, want 0 and 0", i, mt.Active, mt.Queued)
		}
	}
}
