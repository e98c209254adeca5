package core

import (
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// DriverState is the progress-relevant view of one driver node.
type DriverState struct {
	// Returned is how many rows the driver has produced so far (k_i).
	Returned int64
	// Total is the estimated number of rows the driver will produce (N_i):
	// exact for completed nodes and full scans, otherwise the plan-time
	// estimate clamped into the node's current bounds.
	Total float64
	// Done reports whether the driver has finished.
	Done bool
}

// State is an instantaneous snapshot of everything a progress estimator is
// allowed to see: the execution feedback (Curr, per-driver counts, leaf
// consumption) and the statistics-derived bounds. Estimators are pure
// functions of State (plus their own history), never of the data instance —
// the paper's Section 2.4 restriction.
type State struct {
	// Curr is the number of GetNext calls performed so far.
	Curr int64
	// LB and UB bound total(Q) at this instant (Section 5.1).
	LB, UB int64
	// UBTight also bounds total(Q) from above, folding in pessimistic
	// degree-sequence join bounds where the plan carries them:
	// LB <= total(Q) <= UBTight <= UB. Equal to UB for plans without
	// pessimistic bounds; the ℓp-safe estimator is Curr/sqrt(LB·UBTight).
	UBTight int64
	// Drivers holds one entry per driver node across all pipelines.
	Drivers []DriverState
	// LeafCard is the summed cardinality of scanned leaves (mu's
	// denominator).
	LeafCard int64
	// LeafConsumed is the number of leaf rows consumed so far (for the
	// running estimate of mu used by heuristic switching).
	LeafConsumed int64
	// Pipelines holds per-pipeline progress, in Pipelines(root) order; the
	// dynamic dne refinement (DneDynamic) scales each pipeline's driver
	// total by its observed per-driver-tuple work.
	Pipelines []PipelineState
}

// PipelineState is the progress-relevant view of one pipeline.
type PipelineState struct {
	// Work is the GetNext calls performed by the pipeline's operators so
	// far.
	Work int64
	// DriverReturned and DriverTotal aggregate the pipeline's driver nodes
	// (rows consumed, estimated final rows).
	DriverReturned int64
	DriverTotal    float64
	// EstWork is the plan-time estimate of the pipeline's total work (sum
	// of member nodes' estimated cardinalities clamped into their bounds).
	EstWork float64
	// Done reports that every member operator reached EOF.
	Done bool
}

// Interval returns hard bounds on the true progress at this instant:
// Curr/UB <= progress <= Curr/LB. Any estimator may be constrained into it.
func (s *State) Interval() (lo, hi float64) {
	if s.Curr <= 0 {
		return 0, 1
	}
	lo = float64(s.Curr) / float64(s.UB)
	hi = float64(s.Curr) / float64(s.LB)
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// TightInterval is Interval computed against the pessimistic upper bound:
// Curr/UBTight <= progress <= Curr/LB. Identical to Interval for plans
// without pessimistic bounds.
func (s *State) TightInterval() (lo, hi float64) {
	if s.Curr <= 0 {
		return 0, 1
	}
	lo = float64(s.Curr) / float64(s.UBTight)
	hi = float64(s.Curr) / float64(s.LB)
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// MuRunning is the average work per consumed leaf tuple so far — the
// observable proxy for mu used by heuristic estimator switching (Section
// 6.4). Theorem 7 shows no estimator can bound the true mu from it.
func (s *State) MuRunning() float64 {
	if s.LeafConsumed <= 0 {
		return 1
	}
	return float64(s.Curr) / float64(s.LeafConsumed)
}

// Tracker captures States from a running plan. It owns the plan's shape,
// its ledger, and a prebuilt BoundsEvaluator, so each capture is one read of
// the ledger into a reused buffer, the incremental bounds pass folding that
// read, and a sweep over the same read for Curr, the drivers, the leaves and
// the pipelines — no per-capture maps, and no operator-tree access of any
// kind on the sample path. A capture runs on the goroutine that runs the
// plan — at a credit, from the sampling trigger, or once the run has
// returned — so its read is the whole plan at one instant.
type Tracker struct {
	shape     *PlanShape
	led       *ledger.Ledger
	ev        *BoundsEvaluator
	nodes     []ledger.Snapshot // the latest capture's ledger read, by NodeID
	drivers   []ledger.NodeID
	leaves    []ledger.NodeID // leaves outside rescanned subtrees
	pipelines []Pipeline
}

// NewTracker prepares a tracker for the plan rooted at root, deriving its
// shape and binding its ledger (the plan structure is fixed; only runtime
// counters change between captures).
func NewTracker(root exec.Operator) *Tracker {
	shape, led := ShapeOf(root)
	t := &Tracker{
		shape:     shape,
		led:       led,
		ev:        newEvaluator(shape, led),
		nodes:     make([]ledger.Snapshot, shape.Len()),
		pipelines: Pipelines(shape),
	}
	for _, p := range t.pipelines {
		t.drivers = append(t.drivers, p.Drivers...)
	}
	var walk func(id ledger.NodeID, underRescan bool)
	walk = func(id ledger.NodeID, underRescan bool) {
		n := shape.Node(id)
		if n.IsLeaf() && !underRescan {
			t.leaves = append(t.leaves, id)
			return
		}
		for i, c := range n.Children {
			walk(c, underRescan || n.Rescanned[i])
		}
	}
	walk(shape.Root().ID, false)
	return t
}

// Capture snapshots the current State from one read of the ledger: Fold
// over Ledger.SnapshotAll.
func (t *Tracker) Capture() *State {
	return t.Fold(t.led.SnapshotAll(t.nodes))
}

// Fold builds the State of one read of the plan's ledger, indexed by NodeID
// (Ledger.SnapshotAll): the bounds pass folds the read, Curr is the sum of
// its Returned counters, and the drivers, leaves and pipelines index into
// it; a copy is kept as the capture's node view (what Monitor.Frame
// publishes). Nothing else is read, so bounds and Curr describe one instant:
// every node's refined LB covers its own Returned, hence LB >= Curr, and
// every driver's Total covers its Returned. Summing the bounds snapshot's
// refined LBs instead of Curr would over-count (they include static lower
// bounds of nodes that have not produced yet). Any read may be folded — a
// recorded one, or one a sampler could take between two recorded ones.
func (t *Tracker) Fold(read []ledger.Snapshot) *State {
	t.nodes = append(t.nodes[:0], read...)
	snap := t.ev.Fold(t.nodes)
	s := &State{
		Curr:      curr(t.nodes),
		LB:        snap.LB,
		UB:        snap.UB,
		UBTight:   snap.UBTight,
		Drivers:   make([]DriverState, 0, len(t.drivers)),
		Pipelines: make([]PipelineState, 0, len(t.pipelines)),
	}
	if s.LB < 1 {
		s.LB = 1
	}
	if s.UB < s.LB {
		s.UB = s.LB
	}
	if s.UBTight < s.LB {
		s.UBTight = s.LB
	}
	if s.UBTight > s.UB {
		s.UBTight = s.UB
	}
	for _, d := range t.drivers {
		rt := t.nodes[d]
		s.Drivers = append(s.Drivers, DriverState{
			Returned: rt.Returned,
			Done:     rt.Done && rt.Rescans == 0,
			Total:    t.estimateTotal(d),
		})
	}
	for _, l := range t.leaves {
		s.LeafCard += t.ev.bounds(l).LB
		s.LeafConsumed += t.nodes[l].Returned
	}
	for _, p := range t.pipelines {
		ps := PipelineState{Done: true}
		for _, id := range p.Ops {
			rt := t.nodes[id]
			ps.Work += rt.Returned
			ps.EstWork += t.estimateTotal(id)
			if !rt.Done || rt.Rescans > 0 {
				ps.Done = false
			}
		}
		for _, d := range p.Drivers {
			ps.DriverReturned += t.nodes[d].Returned
			ps.DriverTotal += t.estimateTotal(d)
		}
		s.Pipelines = append(s.Pipelines, ps)
	}
	return s
}

// estimateTotal is estimateNodeTotal for node id at the latest capture.
func (t *Tracker) estimateTotal(id ledger.NodeID) float64 {
	return estimateNodeTotal(t.shape.Node(id).EstCard, t.nodes[id], t.ev.bounds(id))
}

// estimateNodeTotal estimates a node's final GetNext count: exact — zero
// included, for a node that never runs — when the node finished or its
// bounds pin it, otherwise the plan-time estimate clamped into the current
// hard bounds (falling back to the bounds midpoint or lower bound), at
// least 1.
func estimateNodeTotal(est int64, rt exec.StatsSnapshot, b exec.CardBounds) float64 {
	var total float64
	switch {
	case rt.Done && rt.Rescans == 0:
		return float64(rt.Returned)
	case b.LB == b.UB:
		return float64(b.LB)
	default:
		switch {
		case est >= 0:
			total = clampF(float64(est), float64(b.LB), float64(b.UB))
		case b.UB >= exec.Unbounded:
			total = float64(maxI64(b.LB, 1))
		default:
			total = float64(b.LB+b.UB) / 2
		}
	}
	if total < 1 {
		total = 1
	}
	return total
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
