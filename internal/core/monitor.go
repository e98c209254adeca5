package core

import (
	"fmt"
	"sync"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/schema"
)

// Sample is one observation of the execution: the instant (in GetNext
// calls), the bounds, and each estimator's output.
type Sample struct {
	Calls  int64
	LB, UB int64
	// UBTight is the pessimistic (degree-norm) upper bound that held at the
	// sample; equal to UB when the plan carries no pessimistic bounds.
	UBTight   int64
	Estimates []float64 // parallel to Estimators
}

// SampleSet holds a monitored execution's samples and exposes the series
// API shared by the inline Monitor (call-count periods on the executor's
// credit trigger: the library's RunWithProgress, the accuracy matrix with
// its paper cells, and the invariant tests) and the wall-clock AsyncMonitor
// (the serving path). Either series is judged by the one checker, Series.
type SampleSet struct {
	// Estimators are evaluated at every sample, in order.
	Estimators []Estimator
	// Samples are the recorded observations, in capture order.
	Samples []Sample
	// OnSample, when non-nil, is invoked after each recorded sample with
	// that sample, letting consumers stream observations live instead of
	// reading Samples after the run. It runs wherever the sample is taken —
	// inline on the crediting goroutine under Monitor (a worker's, under a
	// concurrent parallel plan; one at a time), on the sampler goroutine
	// under AsyncMonitor (or, for the final at-EOF sample, on the goroutine
	// calling Stop) — and must not block: a slow callback delays subsequent
	// samples. Set before the run starts.
	OnSample func(Sample)

	total int64
}

// capture records one sample and streams it to OnSample: an observation
// whose anchored call count is not past the last stored sample's is the same
// instant seen twice and is dropped, so every sampler — per-call hook,
// credit trigger, async wall-clock — produces a series strictly increasing
// in Calls.
func (ss *SampleSet) capture(tracker *Tracker, calls int64) {
	s := tracker.Capture()
	// Anchor the sample to the ledger total its own capture read, not the
	// triggering call count: under parallel plans other workers advance the
	// global counter between the trigger and the capture, and the paper's
	// per-instant guarantees are stated against the captured Curr. In serial
	// execution the two are identical.
	if s.Curr > calls {
		calls = s.Curr
	}
	if n := len(ss.Samples); n > 0 && calls <= ss.Samples[n-1].Calls {
		return
	}
	sample := evaluate(s, calls, ss.Estimators)
	ss.Samples = append(ss.Samples, sample)
	if ss.OnSample != nil {
		ss.OnSample(sample)
	}
}

// evaluate is the observation of s at the instant calls under ests.
func evaluate(s *State, calls int64, ests []Estimator) Sample {
	sample := Sample{Calls: calls, LB: s.LB, UB: s.UB, UBTight: s.UBTight, Estimates: make([]float64, len(ests))}
	for i, e := range ests {
		sample.Estimates[i] = e.Estimate(s)
	}
	return sample
}

// setTotal records total(Q), or the call count at which the run stopped.
func (ss *SampleSet) setTotal(total int64) { ss.total = total }

// Total returns total(Q) (valid after the run completes).
func (ss *SampleSet) Total() int64 { return ss.total }

// Point pairs the true progress at a sample with an estimate.
type Point struct {
	Actual, Est float64
}

// Series returns (actual, estimate) points for the named estimator; valid
// after the run completes.
func (ss *SampleSet) Series(name string) ([]Point, error) {
	idx := -1
	for i, e := range ss.Estimators {
		if e.Name() == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("monitor: no estimator %q", name)
	}
	return ss.SeriesAt(idx), nil
}

// SeriesAt returns the points for estimator index i.
func (ss *SampleSet) SeriesAt(i int) []Point {
	out := make([]Point, len(ss.Samples))
	for j, s := range ss.Samples {
		out[j] = Point{Actual: float64(s.Calls) / float64(ss.total), Est: s.Estimates[i]}
	}
	return out
}

// Monitor samples a set of estimators while a plan executes, inline on the
// execution path: at the first credit past each multiple of Every (Run), or
// at every multiple exactly (Hook). Read Series / errors after completion.
// For sampling that does not run on the execution path, see AsyncMonitor.
type Monitor struct {
	SampleSet

	// Every is the sampling period in GetNext calls.
	Every int64

	tracker *Tracker
	root    exec.Operator

	mu   sync.Mutex // serializes captures from worker goroutines
	last int64      // the latest instant sampled
}

// NewMonitor builds a monitor for the plan rooted at root, sampling every
// `every` GetNext calls (minimum 1).
func NewMonitor(root exec.Operator, every int64, ests ...Estimator) *Monitor {
	if every < 1 {
		every = 1
	}
	return &Monitor{
		SampleSet: SampleSet{Estimators: ests},
		Every:     every,
		tracker:   NewTracker(root),
		root:      root,
	}
}

// sample captures the instant calls. Worker goroutines of a parallel plan
// call it concurrently: the mutex serializes captures (Tracker.Capture is
// not reentrant), and an instant a recorded sample overtook is skipped.
func (m *Monitor) sample(calls int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if calls <= m.last {
		return
	}
	m.last = calls
	m.capture(m.tracker, calls)
}

// Hook returns the callback to install as exec.Ctx.OnGetNext. It puts the
// run in the exact regime, one-row pulls, so it is only for callers that
// need every call (chaos); Run samples without it.
func (m *Monitor) Hook() func(int64) {
	return func(calls int64) {
		if calls%m.Every == 0 {
			m.sample(calls)
		}
	}
}

// Attach installs the monitor's sampling trigger on ctx, and pulls of
// min(Every, exec.DefaultBatchSize) rows, so a sample lands within one pull
// of its due instant.
func (m *Monitor) Attach(ctx *exec.Ctx) {
	ctx.BatchSize = int(min(m.Every, exec.DefaultBatchSize))
	ctx.SampleEvery(m.Every, m.sample)
}

// Finish records the at-completion sample (unless the run already sampled
// that instant) and total(Q). Run calls it automatically; callers that
// install Hook or Attach by hand invoke it once the plan is drained.
func (m *Monitor) Finish(total int64) {
	m.setTotal(total)
	m.capture(m.tracker, total)
}

// Run executes the plan to completion under this monitor and returns the
// root's output rows.
func (m *Monitor) Run() ([]schema.Row, error) {
	ctx := exec.NewCtx()
	m.Attach(ctx)
	rows, err := exec.RunBatch(ctx, m.root)
	if err != nil {
		return nil, err
	}
	m.Finish(ctx.Calls())
	return rows, nil
}

// Mu returns the paper's mu for the completed execution.
func (m *Monitor) Mu() float64 { return Mu(m.root) }
