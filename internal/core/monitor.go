package core

import (
	"context"
	"time"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
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

// Frame is one sample as published: the instant, its bounds and hard
// interval, every estimate by name, and every plan node's counters — all
// from the one ledger read the sample was captured from, so the node rows'
// Calls sum to the frame's Calls. The library's ProgressUpdate and the
// daemon's session events are both built from it.
type Frame struct {
	// Calls is Curr at the instant.
	Calls int64 `json:"calls"`
	// LB and UB bound total(Q) at the instant.
	LB int64 `json:"lb"`
	UB int64 `json:"ub"`
	// Lo and Hi are the hard progress interval [Calls/UB, min(Calls/LB, 1)];
	// both are 0 while Calls is 0 (nothing has run, so the interval says
	// nothing yet — read LB and UB for the size of the job).
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Estimates holds each estimator's output by name.
	Estimates map[string]float64 `json:"estimates"`
	// Nodes holds every plan node's cumulative counters at the instant, in
	// NodeID order.
	Nodes []NodeCount `json:"nodes,omitempty"`
}

// NodeCount is one plan node's cumulative runtime counters at a frame's
// instant, read from the progress ledger (no operator-tree walk). Counters
// are cumulative across rescans, matching the paper's Curr.
type NodeCount struct {
	// ID is the node's ledger NodeID (stable, dense, pre-order).
	ID int32 `json:"id"`
	// Name is the operator's display name.
	Name string `json:"name"`
	// Calls is the node's counted GetNext calls.
	Calls int64 `json:"calls"`
	// Delivered is the rows the node handed to its parent.
	Delivered int64 `json:"delivered"`
	// Rescans counts the node's re-opens after producing output.
	Rescans int64 `json:"rescans,omitempty"`
	// Done marks a node that has reached EOF.
	Done bool `json:"done,omitempty"`
}

// Monitor samples a set of estimators while a plan executes, inline on the
// run's goroutine, at a credit: under the call-count rule, at the first
// credit past each multiple of Every; under the wall-clock rule, at the
// first credit at least Interval after the previous sample. Every sample is
// therefore one ledger read at one instant of the GetNext stream. It owns
// the plan's tracker and the recorded series; a series is judged by the one
// checker, Series (SeriesOf). RunContext is the one monitored run.
type Monitor struct {
	// Every is the sampling period in GetNext calls; a non-positive period
	// is sized by RunContext to about 200 frames from frame 0's bounds.
	Every int64
	// Interval, when positive, replaces Every: the sampling period in
	// wall-clock time.
	Interval time.Duration
	// Estimators are evaluated at every sample, in order.
	Estimators []Estimator
	// Samples are the recorded observations, in capture order.
	Samples []Sample
	// OnSample, when non-nil, is invoked with frame 0 (Calls = 0, not
	// recorded in Samples) before the first call, then with each recorded
	// sample, the at-stop one last; Frame shapes it for publishing. It runs
	// on the run's goroutine, which waits for it. Set before the run starts.
	OnSample func(Sample)

	tracker *Tracker
	root    exec.Operator
	last    int64 // Calls of the latest recorded sample
	total   int64
}

// NewMonitor builds a monitor for the plan rooted at root, sampling every
// `every` GetNext calls (non-positive: about 200 frames, see Every).
func NewMonitor(root exec.Operator, every int64, ests ...Estimator) *Monitor {
	return &Monitor{Every: every, Estimators: ests, tracker: NewTracker(root), root: root}
}

// NewAsyncMonitor builds a monitor for the plan rooted at root that samples
// on the wall-clock rule, every interval (at least 1 ns, which samples at
// every credit). It is named for the off-thread sampler it replaced, because
// the end-to-end benchmark's traced run calls it by that name; it starts no
// goroutine.
func NewAsyncMonitor(root exec.Operator, interval time.Duration, ests ...Estimator) *Monitor {
	return &Monitor{Interval: max(interval, 1), Estimators: ests, tracker: NewTracker(root), root: root}
}

// Run executes the plan to completion under this monitor, unbound to any
// context: RunContext(context.Background(), exec.NewCtx()).
func (m *Monitor) Run() ([]schema.Row, error) {
	return m.RunContext(context.Background(), exec.NewCtx())
}

// RunContext executes the plan on ctx under this monitor and returns the
// root's rows, honouring std like exec.RunBatchContext. It hands frame 0 to
// OnSample (Curr = 0, the static bounds, estimates from fresh registry
// instances of Estimators, so a stateful one's history holds sampled
// instants only), sizes a non-positive Every to about 200 frames (UB/200,
// LB/200 while UB is unbounded), installs the trigger — under Every a
// hook-free ctx pulls min(Every, exec.DefaultBatchSize) rows, so a sample
// lands within one pull of its due instant — and records the at-stop sample
// and total(Q) on every outcome. Set ctx's hooks before the call or from
// frame 0's OnSample.
func (m *Monitor) RunContext(std context.Context, ctx *exec.Ctx) ([]schema.Row, error) {
	names := make([]string, len(m.Estimators))
	for i, e := range m.Estimators {
		names[i] = e.Name()
	}
	fresh, err := NewEstimators(names...)
	if err != nil {
		return nil, err
	}
	s0 := evaluate(m.tracker.Capture(), fresh)
	if m.Interval <= 0 && m.Every <= 0 {
		m.Every = max(s0.UB/200, 1)
		if s0.UB >= exec.Unbounded {
			m.Every = max(s0.LB/200, 1)
		}
	}
	if m.OnSample != nil {
		m.OnSample(s0)
	}
	if m.Interval > 0 {
		ctx.SampleInterval(m.Interval, m.sample)
	} else {
		if ctx.Inject == nil && ctx.OnGetNext == nil {
			ctx.BatchSize = int(min(m.Every, exec.DefaultBatchSize))
		}
		ctx.SampleEvery(m.Every, m.sample)
	}
	rows, err := exec.RunBatchContext(std, ctx, m.root)
	m.total = ctx.Calls()
	m.record()
	return rows, err
}

// sample is the trigger's path: an instant not past the latest recorded
// sample is skipped without a capture.
func (m *Monitor) sample(calls int64) {
	if calls <= m.last {
		return
	}
	m.record()
}

// record captures the current instant and streams it to OnSample. A capture
// whose Curr is not past the latest recorded sample's is the same instant
// seen twice and is dropped, so the series is strictly increasing in Calls.
func (m *Monitor) record() {
	s := m.tracker.Capture()
	if len(m.Samples) > 0 && s.Curr <= m.last {
		return
	}
	m.last = s.Curr
	sample := evaluate(s, m.Estimators)
	m.Samples = append(m.Samples, sample)
	if m.OnSample != nil {
		m.OnSample(sample)
	}
}

// evaluate is the observation of s under ests.
func evaluate(s *State, ests []Estimator) Sample {
	sample := Sample{Calls: s.Curr, LB: s.LB, UB: s.UB, UBTight: s.UBTight, Estimates: make([]float64, len(ests))}
	for i, e := range ests {
		sample.Estimates[i] = e.Estimate(s)
	}
	return sample
}

// Mu returns the paper's mu for the completed execution, from the ledger
// read of the at-stop capture. Like Samples, read it once RunContext has
// returned.
func (m *Monitor) Mu() float64 { return m.tracker.ev.mu(m.tracker.nodes) }

// Frame shapes s for publishing, naming its estimates after Estimators and
// its nodes after the plan. The node rows come from the latest capture's
// ledger read, so call it with the sample that capture produced: inside
// OnSample (frame 0 included), or on the last sample once RunContext has
// returned (whose at-stop capture read the same Curr when it recorded
// nothing new).
func (m *Monitor) Frame(s Sample) Frame {
	f := Frame{Calls: s.Calls, LB: s.LB, UB: s.UB, Estimates: make(map[string]float64, len(s.Estimates))}
	if s.Calls > 0 {
		f.Lo = float64(s.Calls) / float64(s.UB)
		f.Hi = min(float64(s.Calls)/float64(s.LB), 1)
	}
	for i, v := range s.Estimates {
		f.Estimates[m.Estimators[i].Name()] = v
	}
	t := m.tracker
	f.Nodes = make([]NodeCount, len(t.nodes))
	for i, n := range t.nodes {
		f.Nodes[i] = NodeCount{
			ID:        int32(i),
			Name:      t.shape.Node(ledger.NodeID(i)).Name,
			Calls:     n.Returned,
			Delivered: n.Delivered,
			Rescans:   n.Rescans,
			Done:      n.Done,
		}
	}
	return f
}

// Total returns total(Q) (valid after the run completes).
func (m *Monitor) Total() int64 { return m.total }

// Point pairs the true progress at a sample with an estimate.
type Point struct {
	Actual, Est float64
}

// SeriesAt returns the points for estimator index i.
func (m *Monitor) SeriesAt(i int) []Point {
	out := make([]Point, len(m.Samples))
	for j, s := range m.Samples {
		out[j] = Point{Actual: float64(s.Calls) / float64(m.total), Est: s.Estimates[i]}
	}
	return out
}
