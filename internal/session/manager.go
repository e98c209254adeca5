package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/compile"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
)

// Admission errors.
var (
	// ErrShed is returned when the concurrency limit is reached and the
	// queue is at its depth cap — the request is shed rather than queued
	// behind an unbounded backlog.
	ErrShed = errors.New("session: at capacity, request shed")
	// ErrClosed is returned by Submit after Close has begun.
	ErrClosed = errors.New("session: manager closed")
	// ErrNotFound is returned for unknown session ids.
	ErrNotFound = errors.New("session: no such session")
)

// Config tunes a Manager. The zero value gets sensible defaults.
type Config struct {
	// MaxConcurrent bounds simultaneously-running sessions (default 8).
	MaxConcurrent int
	// MaxQueue bounds sessions waiting for a run slot; admission sheds
	// (ErrShed) beyond it (default 64).
	MaxQueue int
	// SampleInterval is each session's wall-clock sampling period (default
	// 2ms): the run samples itself at its first credit this long after the
	// previous sample.
	SampleInterval time.Duration
	// DefaultDeadline caps each session's execution time unless the submit
	// overrides it (0 = no deadline).
	DefaultDeadline time.Duration
	// Estimators are the estimator names evaluated per sample (default
	// dne, pmax, safe).
	Estimators []string
	// KeepRows caps result rows retained per finished session for
	// inspection (0 = default 50, negative = unlimited).
	KeepRows int
	// Pool, when set, is the buffer pool behind the catalog's disk-backed
	// tables; every published Progress event then carries a snapshot of
	// its counters, so streaming clients see I/O behaviour (hit ratio,
	// physical bytes) alongside the progress estimates.
	Pool *pager.Pool
	// StallAfter flags a running session that has published no event for
	// this long as stalled (Info.Stalled) and counts each such gap once it
	// ends (Metrics.StallEvents). A run publishes at its first credit every
	// SampleInterval, so a gap means no credit, that is no progress, for
	// that long; the precision is one SampleInterval, and StallAfter should
	// be several of them. 0 turns stall detection off. The flag is advisory
	// — a stall can be slow I/O or a phase that credits nothing (a sort's
	// sort), not only a wedged query — so nothing is canceled
	// automatically.
	StallAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = 2 * time.Millisecond
	}
	if len(c.Estimators) == 0 {
		c.Estimators = []string{"dne", "pmax", "safe"}
	}
	if c.KeepRows == 0 {
		c.KeepRows = 50
	} else if c.KeepRows < 0 {
		c.KeepRows = int(^uint(0) >> 1)
	}
	return c
}

// SubmitOptions are per-submission overrides.
type SubmitOptions struct {
	// Deadline overrides Config.DefaultDeadline (negative = explicitly no
	// deadline).
	Deadline time.Duration
	// Estimators overrides Config.Estimators.
	Estimators []string
	// Instrument, when non-nil, is invoked with the session's execution
	// context after it is created and before the run starts — the
	// attachment point for fault injectors (internal/fault) and test
	// gates. It runs on the session's run goroutine.
	Instrument func(*exec.Ctx)
}

// Manager admits, schedules, tracks, and cancels query sessions over one
// database catalog. All methods are safe for concurrent use.
type Manager struct {
	cfg        Config
	cat        *catalog.Catalog
	base       context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*Session
	order    []*Session
	queue    []*Session
	running  int
	nextID   int64
	closed   bool
	wg       sync.WaitGroup

	c counters
}

// New returns a Manager serving queries over cat.
func New(cat *catalog.Catalog, cfg Config) *Manager {
	base, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:        cfg.withDefaults(),
		cat:        cat,
		base:       base,
		baseCancel: cancel,
		sessions:   make(map[string]*Session),
	}
}

// Submit compiles sql and admits it as a session. It returns the session
// immediately (queued or already running); compile errors and shedding are
// reported synchronously.
func (m *Manager) Submit(sql string, opt SubmitOptions) (*Session, error) {
	root, err := compile.CompileSQL(m.cat, sql)
	if err != nil {
		m.c.rejected.Add(1)
		return nil, err
	}
	return m.admit(root, sql, opt)
}

// SubmitPlan admits a directly-constructed operator tree (e.g. a built-in
// TPC-H plan). The plan must be fresh: operators carry execution state and
// cannot be shared across sessions.
func (m *Manager) SubmitPlan(root exec.Operator, label string, opt SubmitOptions) (*Session, error) {
	return m.admit(root, label, opt)
}

func (m *Manager) admit(root exec.Operator, text string, opt SubmitOptions) (*Session, error) {
	estNames := m.cfg.Estimators
	if len(opt.Estimators) > 0 {
		estNames = opt.Estimators
	}
	if _, err := core.NewEstimators(estNames...); err != nil {
		m.c.rejected.Add(1)
		return nil, err
	}
	deadline := m.cfg.DefaultDeadline
	if opt.Deadline != 0 {
		deadline = opt.Deadline
		if deadline < 0 {
			deadline = 0
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.running >= m.cfg.MaxConcurrent && len(m.queue) >= m.cfg.MaxQueue {
		m.c.shed.Add(1)
		return nil, ErrShed
	}
	m.nextID++
	s := &Session{
		id:         fmt.Sprintf("q%06d", m.nextID),
		text:       text,
		created:    time.Now(),
		state:      StateQueued,
		root:       root,
		estNames:   estNames,
		keepRows:   m.cfg.KeepRows,
		deadline:   deadline,
		subs:       make(map[int]chan Progress),
		instrument: opt.Instrument,
		pool:       m.cfg.Pool,
		stallAfter: m.cfg.StallAfter,
		stalls:     &m.c.stallEvents,
	}
	m.sessions[s.id] = s
	m.order = append(m.order, s)
	m.c.admitted.Add(1)
	if m.running < m.cfg.MaxConcurrent {
		m.startLocked(s)
	} else {
		m.queue = append(m.queue, s)
	}
	return s, nil
}

// startLocked moves a session onto its own run goroutine. Caller holds m.mu.
func (m *Manager) startLocked(s *Session) {
	m.running++
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.execute(s)
	}()
}

// execute runs one session to a terminal state: its monitor's RunContext
// publishes frame 0 (the session turns running with it), each sample and the
// at-stop sample, and the final event follows.
func (m *Manager) execute(s *Session) {
	s.mu.Lock()
	if s.cancelAsked {
		// Canceled between admission and start: never runs.
		s.mu.Unlock()
		m.finish(s, nil, exec.ErrCanceled)
		return
	}
	execCtx := exec.NewCtx()
	s.execCtx = execCtx
	// The names were validated at admission.
	ests, _ := core.NewEstimators(s.estNames...)
	mon := core.NewMonitor(s.root, 0, ests...)
	mon.Interval = m.cfg.SampleInterval
	instrument := s.instrument
	mon.OnSample = func(smp core.Sample) {
		s.onFrame(mon.Frame(smp))
		if instrument != nil {
			// Fault injectors and test gates attach once frame 0 is
			// published, before the first call.
			instrument(execCtx)
			instrument = nil
		}
	}
	s.mon = mon
	s.mu.Unlock()

	stdctx := m.base
	if s.deadline > 0 { // fixed at admission
		var cancel context.CancelFunc
		stdctx, cancel = context.WithTimeout(stdctx, s.deadline)
		defer cancel()
	}
	rows, err := mon.RunContext(stdctx, execCtx)
	m.finish(s, rows, err)
}

// finish frees a run's slot, then makes its session terminal: a Metrics read
// that sees the session terminal no longer counts it Active.
func (m *Manager) finish(s *Session, rows []schema.Row, runErr error) {
	m.onDone()
	s.mu.Lock()
	m.finishLocked(s, rows, runErr)
	s.mu.Unlock()
}

// finishLocked applies the terminal transition, records metrics, and
// publishes the final progress event. A run's error says why it was
// canceled: exec.ErrCanceled for Cancel, context.DeadlineExceeded for the
// session's deadline, context.Canceled for the manager's shutdown. Caller
// holds s.mu.
func (m *Manager) finishLocked(s *Session, rows []schema.Row, runErr error) {
	s.finished = time.Now()
	if s.mon != nil {
		s.totalCalls, s.workMu = s.mon.Total(), s.mon.Mu()
	}
	switch {
	case runErr == nil:
		s.state = StateFinished
		s.rowCount = len(rows)
		s.cols = make([]string, 0, s.root.Schema().Len())
		for _, c := range s.root.Schema().Columns {
			s.cols = append(s.cols, c.Name)
		}
		if len(rows) > s.keepRows {
			rows = rows[:s.keepRows]
		}
		// Deep copy: the result's backing array and the operators' arena
		// slabs must not stay reachable through the few kept rows.
		s.rows = make([]schema.Row, len(rows))
		for i, r := range rows {
			s.rows[i] = schema.CloneRow(r)
		}
		m.c.completed.Add(1)
	case errors.Is(runErr, exec.ErrCanceled), errors.Is(runErr, context.DeadlineExceeded), errors.Is(runErr, context.Canceled):
		s.state = StateCanceled
		s.err = exec.ErrCanceled
		switch {
		case s.cancelAsked:
			// reason recorded by RequestCancel / Close
		case errors.Is(runErr, context.DeadlineExceeded):
			s.cancelReason = "deadline exceeded"
			s.err = runErr
		case errors.Is(runErr, context.Canceled):
			s.cancelReason = "server shutdown"
		default:
			s.cancelReason = "canceled"
		}
		if s.cancelAsked && !s.cancelAt.IsZero() && s.mon != nil {
			m.c.recordCancelLatency(time.Since(s.cancelAt))
		}
		m.c.canceled.Add(1)
	default:
		s.state = StateFailed
		s.err = runErr
		m.c.failed.Add(1)
	}
	// Final event: the frame of the monitor's at-stop sample when the
	// session ran, zero-valued otherwise (canceled while queued).
	var f core.Frame
	if s.mon != nil && len(s.mon.Samples) > 0 {
		f = s.mon.Frame(s.mon.Samples[len(s.mon.Samples)-1])
	}
	s.publishLocked(s.progressLocked(f, true))

	// Let go of the plan: a finished session answers Info, Samples and a late
	// Subscribe from the summary above, so the operator tree (hash tables,
	// sort buffers, batch scratch), its ledger and the monitor need not
	// outlive the run.
	if s.mon != nil {
		s.samples = s.mon.Samples
	}
	s.root, s.mon, s.execCtx, s.instrument, s.nodePrev = nil, nil, nil, nil, nil
}

// onDone frees a run slot and starts queued work.
func (m *Manager) onDone() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	for !m.closed && m.running < m.cfg.MaxConcurrent && len(m.queue) > 0 {
		next := m.queue[0]
		m.queue = m.queue[1:]
		m.startLocked(next)
	}
}

// Get looks a session up by id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// List returns every registered session in admission order.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, len(m.order))
	copy(out, m.order)
	return out
}

// Cancel requests termination of a session: queued sessions transition to
// canceled immediately; running sessions stop at their next counted GetNext
// call. Terminal sessions are left untouched (Cancel is idempotent).
func (m *Manager) Cancel(id, reason string) (*Session, error) {
	if reason == "" {
		reason = "client cancel"
	}
	m.mu.Lock()
	s, ok := m.sessions[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	// Pull it out of the queue if still waiting.
	inQueue := false
	for i, q := range m.queue {
		if q == s {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			inQueue = true
			break
		}
	}
	m.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Terminal() || s.cancelAsked {
		return s, nil
	}
	s.cancelAsked = true
	s.cancelReason = reason
	s.cancelAt = time.Now()
	m.c.cancelRequests.Add(1)
	if inQueue {
		// No goroutine owns it: finish it here.
		m.finishLocked(s, nil, exec.ErrCanceled)
		return s, nil
	}
	if s.execCtx != nil {
		s.execCtx.Cancel()
	}
	// else: startLocked has claimed it but execute hasn't attached a Ctx
	// yet; execute observes cancelAsked and finishes it as canceled.
	return s, nil
}

// Close shuts the manager down gracefully: admission stops, queued sessions
// are canceled without running, running sessions are canceled via the shared
// base context, and Close blocks until every run goroutine has exited. Safe
// to call more than once.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	queued := m.queue
	m.queue = nil
	m.mu.Unlock()

	for _, s := range queued {
		s.mu.Lock()
		if !s.state.Terminal() {
			s.cancelAsked = true
			s.cancelReason = "server shutdown"
			s.cancelAt = time.Now()
			m.finishLocked(s, nil, exec.ErrCanceled)
		}
		s.mu.Unlock()
	}
	m.baseCancel()
	m.wg.Wait()
	return nil
}
