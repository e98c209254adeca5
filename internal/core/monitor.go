package core

import (
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

// SampleSet is Monitor's sampling core: the plan's tracker, the capture path
// both due rules go through, and the recorded series with its API. A series
// is judged by the one checker, Series.
type SampleSet struct {
	// Estimators are evaluated at every sample, in order.
	Estimators []Estimator
	// Samples are the recorded observations, in capture order.
	Samples []Sample
	// OnSample, when non-nil, is invoked after each recorded sample with
	// that sample, letting consumers stream observations live instead of
	// reading Samples after the run; Frame shapes it for publishing. It runs
	// on the run's goroutine, at the credit that took the sample, or on the
	// goroutine calling Finish for the at-completion sample; it must not
	// block: the run waits for it. Set before the run starts.
	OnSample func(Sample)

	tracker *Tracker
	root    exec.Operator
	last    int64 // Calls of the latest recorded sample
	total   int64
}

func newSampleSet(root exec.Operator, ests []Estimator) SampleSet {
	return SampleSet{Estimators: ests, tracker: NewTracker(root), root: root}
}

// sample is the trigger's path: an instant not past the latest recorded
// sample is skipped without a capture.
func (ss *SampleSet) sample(calls int64) {
	if calls <= ss.last {
		return
	}
	ss.record()
}

// finish records total(Q), or the call count at which the run stopped, and
// the at-completion sample, unless the run already sampled that instant.
func (ss *SampleSet) finish(total int64) {
	ss.total = total
	ss.record()
}

// record captures the current instant and streams it to OnSample. A capture
// whose Curr is not past the latest recorded sample's is the same instant
// seen twice and is dropped, so the series is strictly increasing in Calls.
func (ss *SampleSet) record() {
	s := ss.tracker.Capture()
	if len(ss.Samples) > 0 && s.Curr <= ss.last {
		return
	}
	ss.last = s.Curr
	sample := evaluate(s, ss.Estimators)
	ss.Samples = append(ss.Samples, sample)
	if ss.OnSample != nil {
		ss.OnSample(sample)
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

// Initial evaluates ests on the plan's state before it has run (Curr = 0, the
// static bounds) without recording a sample. Pass estimators of their own,
// not the monitor's: a stateful one (hybrid-var, combiner) keeps a history of
// the instants it was asked about. Call it before the run starts.
func (ss *SampleSet) Initial(ests ...Estimator) Sample {
	return evaluate(ss.tracker.Capture(), ests)
}

// Mu returns the paper's mu for the completed execution, from the ledger
// read of the at-completion capture (Finish). Like Samples, read it once
// that capture has returned.
func (ss *SampleSet) Mu() float64 { return ss.tracker.ev.mu(ss.tracker.nodes) }

// Frame shapes s for publishing, naming its estimates after Estimators and
// its nodes after the plan. The node rows come from the latest capture's
// ledger read, so call it with the sample that capture produced: inside
// OnSample, on the Initial sample before the run starts, or on the last
// sample once Finish has returned (whose final capture read the same Curr
// when it recorded nothing new).
func (ss *SampleSet) Frame(s Sample) Frame {
	f := Frame{Calls: s.Calls, LB: s.LB, UB: s.UB, Estimates: make(map[string]float64, len(s.Estimates))}
	if s.Calls > 0 {
		f.Lo = float64(s.Calls) / float64(s.UB)
		f.Hi = min(float64(s.Calls)/float64(s.LB), 1)
	}
	for i, v := range s.Estimates {
		f.Estimates[ss.Estimators[i].Name()] = v
	}
	t := ss.tracker
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
func (ss *SampleSet) Total() int64 { return ss.total }

// Point pairs the true progress at a sample with an estimate.
type Point struct {
	Actual, Est float64
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
// run's goroutine, at a credit: under the call-count rule, at the first
// credit past each multiple of Every; under the wall-clock rule, at the
// first credit at least Interval after the previous sample. Every sample is
// therefore one ledger read at one instant of the GetNext stream. Read
// Series / errors after completion.
type Monitor struct {
	SampleSet

	// Every is the sampling period in GetNext calls.
	Every int64
	// Interval, when positive, replaces Every: the sampling period in
	// wall-clock time.
	Interval time.Duration
}

// NewMonitor builds a monitor for the plan rooted at root, sampling every
// `every` GetNext calls (minimum 1).
func NewMonitor(root exec.Operator, every int64, ests ...Estimator) *Monitor {
	return &Monitor{SampleSet: newSampleSet(root, ests), Every: max(every, 1)}
}

// NewAsyncMonitor builds a monitor for the plan rooted at root that samples
// on the wall-clock rule, every interval (a non-positive interval samples at
// every credit). It is named for the off-thread sampler it replaced, because
// the end-to-end benchmark's traced run calls it by that name; it starts no
// goroutine.
func NewAsyncMonitor(root exec.Operator, interval time.Duration, ests ...Estimator) *Monitor {
	return &Monitor{SampleSet: newSampleSet(root, ests), Interval: interval}
}

// Attach installs the monitor's sampling trigger on ctx. Under the
// call-count rule it also sets pulls of min(Every, exec.DefaultBatchSize)
// rows, so a sample lands within one pull of its due instant; the
// wall-clock rule leaves the pull size alone.
func (m *Monitor) Attach(ctx *exec.Ctx) {
	if m.Interval > 0 {
		ctx.SampleInterval(m.Interval, m.sample)
		return
	}
	ctx.BatchSize = int(min(m.Every, exec.DefaultBatchSize))
	ctx.SampleEvery(m.Every, m.sample)
}

// Finish records the at-completion sample (unless the run already sampled
// that instant) and total(Q), or the call count at which a failed or
// canceled run stopped. Run calls it automatically; callers that Attach by
// hand invoke it once the run has returned.
func (m *Monitor) Finish(total int64) { m.finish(total) }

// Run executes the plan to completion under this monitor and returns the
// root's output rows. On error the partial samples, ended by the at-stop
// one, remain readable.
func (m *Monitor) Run() ([]schema.Row, error) {
	ctx := exec.NewCtx()
	m.Attach(ctx)
	rows, err := exec.RunBatch(ctx, m.root)
	m.Finish(ctx.Calls())
	if err != nil {
		return nil, err
	}
	return rows, nil
}
