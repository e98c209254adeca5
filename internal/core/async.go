package core

import (
	"time"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/schema"
)

// AsyncMonitor samples a running plan from its own goroutine, reading the
// executor's atomic counters instead of hooking the execution path. The
// executor pays only the counter updates it performs anyway; the sampling
// cost — one incremental bounds pass per sample — lands entirely on the
// monitoring goroutine. This is the deployment mode the paper argues for:
// progress estimation cheap enough to run continuously, for many concurrent
// queries, without throttling any of them.
//
// It samples on a wall-clock discipline: one sample every Interval (the usual
// "refresh a progress bar" mode), plus one whenever Poke asks for it.
// Deterministic call-count sampling is the inline Monitor's job.
//
// Ticks, pokes and Stop go through the embedded SampleSet, the sampling core
// shared with the inline Monitor: the same capture path, Samples/Series API
// and OnSample stream; AsyncMonitor adds only the ticker, the poke channel
// and the goroutine's lifecycle. Stop (or Run) always records a final at-EOF
// sample, so series of completed runs end at progress 1.0.
//
// The zero Interval defaults to DefaultInterval. Samples must only be read
// after Stop (or Run) has returned.
type AsyncMonitor struct {
	SampleSet

	// Interval is the wall-clock sampling period. Zero means
	// DefaultInterval.
	Interval time.Duration

	ctx  *exec.Ctx
	stop chan struct{}
	done chan struct{}
	poke chan struct{} // one pending Poke; never closed
}

// DefaultInterval is the wall-clock sampling period used when
// AsyncMonitor.Interval is zero.
const DefaultInterval = time.Millisecond

// NewAsyncMonitor builds an off-thread monitor for the plan rooted at root,
// sampling every interval of wall-clock time (0 = DefaultInterval).
func NewAsyncMonitor(root exec.Operator, interval time.Duration, ests ...Estimator) *AsyncMonitor {
	return &AsyncMonitor{
		SampleSet: newSampleSet(root, ests),
		Interval:  interval,
		poke:      make(chan struct{}, 1),
	}
}

// Poke asks the wall-clock sampler for a sample now instead of at its next
// tick; like a tick's, it is dropped when Curr has not moved since the last.
// It never blocks and is safe from any goroutine at any time: pokes coalesce,
// and one sent before Start or after Stop is never read.
func (m *AsyncMonitor) Poke() {
	select {
	case m.poke <- struct{}{}:
	default:
	}
}

// Start launches the sampling goroutine against the context the plan is (or
// will be) executing under. It must be called at most once, before Stop.
func (m *AsyncMonitor) Start(ctx *exec.Ctx) {
	m.ctx = ctx
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.loop()
}

// Stop halts the sampler, records the final sample at the current instant,
// and waits for the goroutine to exit. After Stop returns, Samples is safe
// to read. If the plan ran to completion before Stop, the final sample is
// the at-EOF observation and Total is total(Q).
func (m *AsyncMonitor) Stop() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop = nil
	m.finish(m.ctx.Calls())
}

func (m *AsyncMonitor) loop() {
	defer close(m.done)
	interval := m.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		case <-m.poke:
		}
		m.sample(m.ctx.Calls())
	}
}

// Run executes the plan to completion with the sampler attached and returns
// the root's output rows. On error the sampler is stopped and partial
// samples remain readable.
func (m *AsyncMonitor) Run() ([]schema.Row, error) {
	ctx := exec.NewCtx()
	m.Start(ctx)
	// The async sampler reads the ledger from its own goroutine — no
	// per-call hooks — so the run takes the vectorized fast path.
	rows, err := exec.RunBatch(ctx, m.root)
	m.Stop()
	if err != nil {
		return nil, err
	}
	return rows, nil
}
