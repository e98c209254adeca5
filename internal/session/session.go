// Package session runs queries as managed sessions: a Manager admits work
// under a concurrency limit (FIFO queue with a depth cap, shedding when
// full), executes each admitted query on its own goroutine, which samples
// its own progress at a credit every Config.SampleInterval (a core.Monitor
// on the wall-clock rule) and publishes each sample as it takes it, and
// keeps a registry of live and finished sessions for inspection, streaming,
// and cancellation.
//
// This is the serving layer the paper's motivating scenario implies: many
// queries in flight at once, each continuously observed by a progress
// estimator cheap enough that the observation never throttles execution,
// with the estimate informing the decision the paper cares about —
// letting the query run or killing it.
package session

import (
	"sync"
	"sync/atomic"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
)

// State is a session's lifecycle state. Transitions are monotone:
// queued → running → finished | canceled | failed, with queued sessions
// also able to jump straight to canceled.
type State string

// Session lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateFinished State = "finished"
	StateCanceled State = "canceled"
	StateFailed   State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateFinished || s == StateCanceled || s == StateFailed
}

// Progress is one streamed progress observation for a session: a monitor
// frame (the instant, its bounds and hard interval, every configured
// estimator's output, the plan's node counters) plus lifecycle framing. The
// frame's fields are flattened into the JSON object.
type Progress struct {
	// Seq numbers the session's published events from 1, monotonically.
	// SSE serving uses it as the event id, letting a client that
	// reconnects with Last-Event-ID skip observations it already has.
	Seq int64 `json:"seq"`
	// Frame is the observation. Its Nodes are the ledger-delta stream: the
	// cumulative counters of every plan node whose counters changed since
	// this session's previous published event (every node on the first and
	// final events), all read at the frame's own instant — accumulated over
	// the events, the nodes' Calls sum to the event's Calls.
	core.Frame
	// Pool is a snapshot of the shared buffer-pool counters at the
	// observation, present when the manager serves disk-backed tables
	// (Config.Pool). Counters are pool-wide and cumulative, so a single
	// session's physical reads appear as deltas between its events.
	Pool *pager.Stats `json:"pool,omitempty"`
	// Elapsed is wall-clock time since the session started running.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Final marks the last event a session will ever publish.
	Final bool `json:"final,omitempty"`
	// State is the session state at the observation.
	State State `json:"state"`
}

// Session is one submitted query: its compiled plan, lifecycle state,
// execution context, monitor, and result summary. The plan, context, monitor
// and node-delta state are released at the terminal transition; the summary
// stays. All fields are guarded by mu; exported accessors are safe from any
// goroutine.
type Session struct {
	id      string
	text    string
	created time.Time

	mu           sync.Mutex
	state        State
	root         exec.Operator
	execCtx      *exec.Ctx
	mon          *core.Monitor
	samples      []core.Sample // the monitor's series, kept past the run
	estNames     []string
	ests         []core.Estimator // built at admission, handed to the monitor at start
	keepRows     int
	deadline     time.Duration
	started      time.Time
	finished     time.Time
	cancelAsked  bool
	cancelReason string
	cancelAt     time.Time
	err          error
	cols         []string
	rows         []schema.Row
	rowCount     int
	totalCalls   int64
	workMu       float64
	last         Progress
	hasLast      bool
	seq          int64
	subs         map[int]chan Progress
	nextSub      int
	instrument   func(*exec.Ctx)
	pool         *pager.Pool
	stallAfter   time.Duration    // Config.StallAfter
	stalls       *atomic.Int64    // the manager's StallEvents counter
	nodePrev     []core.NodeCount // the node rows as last published
}

// Info is a consistent point-in-time view of a session, shaped for JSON
// serving.
type Info struct {
	ID      string    `json:"id"`
	Text    string    `json:"text"`
	State   State     `json:"state"`
	Created time.Time `json:"created"`
	// Started and Finished are nil until the respective transition.
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Elapsed is the run's wall-clock time so far (final once terminal).
	Elapsed time.Duration `json:"elapsed_ns"`
	// Deadline is the per-session execution deadline (0 = none).
	Deadline time.Duration `json:"deadline_ns,omitempty"`
	// Calls is Curr — live for running sessions, total(Q) once finished.
	Calls int64 `json:"calls"`
	// Stalled marks a running session that has published no event for at
	// least the manager's StallAfter: Elapsed minus the latest event's
	// Elapsed, read now. The run publishes at its first credit every
	// SampleInterval, so the flag is accurate to one SampleInterval, and it
	// clears at the next event.
	Stalled bool `json:"stalled,omitempty"`
	// CancelReason says why a canceled session was canceled.
	CancelReason string `json:"cancel_reason,omitempty"`
	// Error is the terminal error message for failed sessions.
	Error string `json:"error,omitempty"`
	// Progress is the most recent event: nil while the session is queued,
	// frame 0 (Calls = 0, the static bounds) from the moment it starts.
	Progress *Progress `json:"progress,omitempty"`
	// Result summary, populated once finished.
	Columns  []string   `json:"columns,omitempty"`
	Rows     [][]string `json:"rows,omitempty"`
	RowCount int        `json:"row_count"`
	Mu       float64    `json:"mu,omitempty"`
}

// Info snapshots the session.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.summaryLocked()
	if len(s.rows) > 0 {
		in.Rows = make([][]string, len(s.rows))
		for i, r := range s.rows {
			cells := make([]string, len(r))
			for j, v := range r {
				cells[j] = v.String()
			}
			in.Rows[i] = cells
		}
	}
	return in
}

// Summary is Info without the kept result rows, which Info formats as
// strings: every other field, for a caller that serves only those.
func (s *Session) Summary() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.summaryLocked()
}

// summaryLocked is Summary's snapshot. Caller holds s.mu.
func (s *Session) summaryLocked() Info {
	in := Info{
		ID:           s.id,
		Text:         s.text,
		State:        s.state,
		Created:      s.created,
		Deadline:     s.deadline,
		CancelReason: s.cancelReason,
		RowCount:     s.rowCount,
		Mu:           s.workMu,
	}
	if !s.started.IsZero() {
		t := s.started
		in.Started = &t
		if s.finished.IsZero() {
			in.Elapsed = time.Since(s.started)
		}
	}
	if !s.finished.IsZero() {
		t := s.finished
		in.Finished = &t
		if !s.started.IsZero() {
			in.Elapsed = s.finished.Sub(s.started)
		}
	}
	in.Stalled = s.stalledFor(in.Elapsed)
	switch {
	case s.state.Terminal():
		in.Calls = s.totalCalls
	case s.execCtx != nil:
		in.Calls = s.execCtx.Calls()
	}
	if s.err != nil {
		in.Error = s.err.Error()
	}
	if s.hasLast {
		p := s.last
		in.Progress = &p
	}
	in.Columns = s.cols
	return in
}

// Samples returns the monitor's recorded sample series: nil until the
// session is terminal (the terminal transition hands the series over), and
// for sessions canceled before running.
func (s *Session) Samples() []core.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// Subscribe registers a progress listener. The returned channel receives
// observations as they are sampled (primed with the latest one, when any),
// ends with exactly one Final-marked event, and is then closed. A slow
// consumer loses intermediate observations, never the final one: the
// channel holds the 16 latest events, so a reader that stops reading pins
// at most 16 and still finds the final event last when it reads again. The
// unsubscribe function is idempotent and must be called when the consumer
// is done; a consumer that unsubscribes early gives up the final event.
//
// A running session's stream is therefore: the latest event (frame 0, with
// Calls = 0 and the static bounds, until a sample exists), the periodic
// samples, the at-stop sample, the final event. A queued session's stream
// starts at frame 0, published when the run starts; a terminal session's
// is the final event alone.
func (s *Session) Subscribe() (<-chan Progress, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan Progress, 16)
	if s.hasLast {
		ch <- s.last
	}
	if s.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	return ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
	}
}

// onFrame fans a monitor frame out as a Progress event. It runs on the
// session's run goroutine, at the credit that took the sample.
func (s *Session) onFrame(f core.Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(s.progressLocked(f, false))
}

// progressLocked frames f as a Progress event, keeping only the nodes that
// changed since the previous published event unless the event is final.
func (s *Session) progressLocked(f core.Frame, final bool) Progress {
	p := Progress{Frame: f, Final: final, State: s.state}
	if !s.started.IsZero() {
		p.Elapsed = time.Since(s.started)
	}
	if s.pool != nil {
		st := s.pool.Stats()
		p.Pool = &st
	}
	changed := f.Nodes[:0]
	for i, n := range f.Nodes {
		if i < len(s.nodePrev) {
			if !final && n == s.nodePrev[i] {
				continue // unchanged since the previous published event
			}
			s.nodePrev[i] = n
		} else {
			s.nodePrev = append(s.nodePrev, n)
		}
		changed = append(changed, n)
	}
	p.Nodes = changed
	return p
}

// stalledFor reports whether the latest event is a running one published at
// least StallAfter before the run's elapsed time. Only a running session's
// latest event is a running one. Caller holds s.mu.
func (s *Session) stalledFor(elapsed time.Duration) bool {
	return s.stallAfter > 0 && s.hasLast && s.last.State == StateRunning &&
		elapsed-s.last.Elapsed >= s.stallAfter
}

// publishLocked assigns the event its sequence number, stores it as the
// latest observation, and fans it out to every subscriber. An event that
// ends a stall, a gap of at least StallAfter after a running event, counts
// one StallEvent. Sends are lossy (latest-wins): a full channel gives up
// its oldest observation to the new one. The final event closes every
// subscriber channel after it is sent, so it is always a channel's last
// value.
func (s *Session) publishLocked(p Progress) {
	if s.stalledFor(p.Elapsed) {
		s.stalls.Add(1)
	}
	s.seq++
	p.Seq = s.seq
	s.last = p
	s.hasLast = true
	for id, ch := range s.subs {
		select {
		case ch <- p:
		default:
			// Full buffer: drop the oldest observation. Only the publisher
			// sends, under s.mu, so the slot it frees stays free and the
			// retry cannot fail.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
		if p.Final {
			delete(s.subs, id)
			close(ch)
		}
	}
}
