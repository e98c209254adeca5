package core

import (
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// BoundsEvaluator is the bounds pass: the one implementation of the
// per-node bounds arithmetic (Section 5.1). The plan's static structure —
// child lists, rescan, demand-cap and early-stop topology, bounds rules —
// comes from the PlanShape once at construction; each pass is then a fold
// of one read of the ledger (Ledger.SnapshotAll, indexed by NodeID) into
// preallocated buffers, an allocation-free sweep, which is what lets a
// monitor sample frequently without throttling the executor. No exec.Operator is touched and no ledger slot is read during
// the fold: every runtime fact comes from the one read, so the bounds
// describe the same instant as the Curr summed from it. One-shot callers
// (ComputeBounds) build a fresh evaluator and Compute once.
//
// Every node's bounds combine its operator's static rule (FinalBounds over
// the children's delivered-row bounds) with runtime feedback:
//
//   - every node has produced Returned rows already, so LB >= Returned;
//   - a node at EOF (not subject to rescans) is pinned: LB = UB = Returned;
//   - nodes inside a rescanned nested-loops inner have their per-run bounds
//     scaled by a bound on the number of rescans (the driving side's UB),
//     and are never pinned at EOF;
//   - every node's emission is bounded by its parent's demand where that
//     demand is itself bounded (Top/Project chains);
//   - nodes an ancestor may stop pulling early (ShapeNode.earlyStops) keep
//     no static lower bound: the query may finish with them short of EOF,
//     so only rows already returned bound them from below.
//
// The arithmetic runs twice per node: the classic track, and a tight track
// that additionally intersects each node's pessimistic degree-norm bound
// (ShapeNode.PessimisticUB) and propagates the tightened child bounds
// upward. The tight track's result is the per-node UBTight; with no
// pessimistic bounds in the plan both tracks are identical.
//
// The read it folds is one instant of the run: a pass runs on the goroutine
// that runs the plan (see DESIGN.md, "Concurrency model & monitoring
// overhead"). Because every node's refined LB covers its own Returned in
// that read, the plan LB covers the read's Curr. The evaluator is not
// reentrant.
type BoundsEvaluator struct {
	opts BoundsOptions
	led  *ledger.Ledger
	root *evalNode
	snap BoundsSnapshot
	read []ledger.Snapshot // Compute's ledger read, reused
	n    int               // node count
	idx  []int             // NodeID -> position in snap.Nodes
}

// evalNode caches one node's static structure.
type evalNode struct {
	rule      FinalBounder
	delivered exec.DeliveredBounder // non-nil iff node is a DeliveredBounder

	children    []*evalNode
	rescanned   []bool // parallel to children
	hasRescan   bool
	firstStream int // driving child's index in children, -1 if none

	demandCap int64 // static pull bound reaching this node (-1 = unbounded)
	mayStop   bool  // an ancestor may abandon this node before EOF
	pessUB    int64 // pessimistic delivered-rows bound (-1 = none)

	childBounds []exec.CardBounds // scratch, parallel to children
	childTight  []exec.CardBounds // scratch for the tight track
	snapIdx     int               // position in BoundsSnapshot.Nodes
	id          ledger.NodeID
}

// NewBoundsEvaluator prepares an incremental evaluator for the plan rooted
// at root with default options, binding the plan's ledger if needed.
func NewBoundsEvaluator(root exec.Operator) *BoundsEvaluator {
	return NewBoundsEvaluatorOpt(root, BoundsOptions{})
}

// NewBoundsEvaluatorOpt is NewBoundsEvaluator with explicit options.
func NewBoundsEvaluatorOpt(root exec.Operator, opts BoundsOptions) *BoundsEvaluator {
	shape, led := ShapeOf(root)
	return newEvaluator(shape, led, opts)
}

// newEvaluator prepares an incremental evaluator over an already-derived
// (PlanShape, *Ledger) pair.
func newEvaluator(shape *PlanShape, led *ledger.Ledger, opts BoundsOptions) *BoundsEvaluator {
	ev := &BoundsEvaluator{opts: opts, led: led, idx: make([]int, shape.Len())}
	ev.snap.Nodes = make([]NodeBounds, shape.Len())
	ev.root = ev.build(shape, shape.Root().ID, -1, false)
	return ev
}

// build derives the cached structure, assigning each node its slot in the
// snapshot in evaluation order (non-rescanned subtrees, then rescanned
// subtrees, then the node itself). demandCap bounds how many rows ancestors
// will ever pull from this node (-1 = unbounded); mayStop marks nodes an
// ancestor may abandon before EOF, voiding their static lower bounds.
func (ev *BoundsEvaluator) build(shape *PlanShape, id ledger.NodeID, demandCap int64, mayStop bool) *evalNode {
	sn := shape.Node(id)
	n := &evalNode{
		rule:        sn.Rule,
		delivered:   sn.Delivered,
		children:    make([]*evalNode, len(sn.Children)),
		rescanned:   sn.Rescanned,
		hasRescan:   sn.HasRescan,
		childBounds: make([]exec.CardBounds, len(sn.Children)),
		childTight:  make([]exec.CardBounds, len(sn.Children)),
		firstStream: sn.FirstStream,
		demandCap:   demandCap,
		mayStop:     mayStop,
		pessUB:      sn.PessimisticUB,
		id:          id,
	}
	caps := sn.demandCaps(demandCap, ev.opts, make([]int64, len(sn.Children)))
	stops := sn.earlyStops(mayStop, demandCap, caps, make([]bool, len(sn.Children)))
	for i, c := range sn.Children {
		if !sn.Rescanned[i] {
			n.children[i] = ev.build(shape, c, caps[i], stops[i])
		}
	}
	for i, c := range sn.Children {
		if sn.Rescanned[i] {
			n.children[i] = ev.build(shape, c, caps[i], stops[i])
		}
	}
	n.snapIdx = ev.n
	ev.idx[id] = ev.n
	ev.snap.Nodes[ev.n].ID = id
	ev.n++
	return n
}

// Compute performs one bounds pass over one read of the ledger's current
// counters, taken into a buffer the evaluator reuses. The returned snapshot
// is owned by the evaluator and overwritten by the next pass.
func (ev *BoundsEvaluator) Compute() *BoundsSnapshot {
	ev.read = ev.led.SnapshotAll(ev.read)
	return ev.Fold(ev.read)
}

// Fold performs one bounds pass over nodes, one read of the plan's ledger
// indexed by NodeID (Ledger.SnapshotAll): every node's runtime facts come
// from it, so evaluators folding the same read agree exactly. The returned
// snapshot is owned by the evaluator and overwritten by the next pass.
func (ev *BoundsEvaluator) Fold(nodes []ledger.Snapshot) *BoundsSnapshot {
	ev.snap.LB, ev.snap.UB, ev.snap.UBTight = 0, 0, 0
	ev.eval(ev.root, nodes, 1, 1)
	return &ev.snap
}

// bounds returns the latest pass's total-count bounds on node id.
func (ev *BoundsEvaluator) bounds(id ledger.NodeID) exec.CardBounds {
	return ev.snap.Nodes[ev.idx[id]].Bounds
}

// eval returns per-run bounds on a node's *delivered* rows (what the
// parent's bounds rule expects) while recording bounds on its GetNext count
// in the snapshot and folding them into the plan totals. The two differ only
// for scans with embedded predicates. mult bounds how many times this
// subtree may be re-opened (1 outside nested loops); multT is the tight
// track's rescan multiplier (tight drive bounds can be smaller). nodes is
// the read being folded.
func (ev *BoundsEvaluator) eval(n *evalNode, nodes []ledger.Snapshot, mult, multT int64) (perRun, perRunT exec.CardBounds) {
	if !n.hasRescan {
		for i, c := range n.children {
			n.childBounds[i], n.childTight[i] = ev.eval(c, nodes, mult, multT)
		}
	} else {
		for i, c := range n.children {
			if !n.rescanned[i] {
				n.childBounds[i], n.childTight[i] = ev.eval(c, nodes, mult, multT)
			}
		}
		var driveUB, driveUBT int64 = exec.Unbounded, exec.Unbounded
		if n.firstStream >= 0 {
			driveUB = n.childBounds[n.firstStream].UB
			driveUBT = n.childTight[n.firstStream].UB
		}
		for i, c := range n.children {
			if n.rescanned[i] {
				n.childBounds[i], n.childTight[i] = ev.eval(c, nodes,
					exec.SatMul(mult, driveUB), exec.SatMul(multT, driveUBT))
			}
		}
	}

	rule := n.rule.FinalBounds(n.childBounds)
	ruleT := n.rule.FinalBounds(n.childTight)
	if n.pessUB >= 0 {
		// The pessimistic bound caps delivered rows; for the operators that
		// carry one, counted calls equal delivered rows, so it caps both
		// (capping the static LB too: two sound intervals cannot truly be
		// disjoint, so the cap only bites where the LB was not).
		ruleT = capBounds(ruleT, n.pessUB)
	}
	deliveredRule, deliveredRuleT := rule, ruleT
	if n.delivered != nil {
		deliveredRule = n.delivered.DeliveredBounds()
		deliveredRuleT = deliveredRule
	}
	sameEmission, sameEmissionT := deliveredRule == rule, deliveredRuleT == ruleT
	if n.mayStop {
		// An ancestor may stop pulling before this node reaches EOF: the
		// static rules' lower bounds assume a full drain and are unsound
		// here. refineWithRuntime restores LB = rows already returned.
		rule.LB, deliveredRule.LB = 0, 0
		ruleT.LB, deliveredRuleT.LB = 0, 0
	}
	if n.demandCap >= 0 && mult == 1 {
		deliveredRule, rule = capToDemand(deliveredRule, rule, sameEmission, n.demandCap)
	}
	if n.demandCap >= 0 && multT == 1 {
		deliveredRuleT, ruleT = capToDemand(deliveredRuleT, ruleT, sameEmissionT, n.demandCap)
	}
	rt := nodes[n.id]

	var total, totalT exec.CardBounds
	if mult == 1 {
		pinned := rt.Done && rt.Rescans == 0
		total = refineWithRuntime(rule, rt.Returned, pinned)
		perRun = refineWithRuntime(deliveredRule, rt.Delivered, pinned)
	} else {
		// Under a rescanned subtree: per-run bounds stay static, totals
		// accumulate across runs.
		perRun = deliveredRule
		total = exec.CardBounds{LB: rt.Returned, UB: exec.SatMul(rule.UB, mult)}
		if total.UB < total.LB {
			total.UB = total.LB
		}
	}
	if multT == 1 {
		pinned := rt.Done && rt.Rescans == 0
		totalT = refineWithRuntime(ruleT, rt.Returned, pinned)
		perRunT = refineWithRuntime(deliveredRuleT, rt.Delivered, pinned)
	} else {
		perRunT = deliveredRuleT
		totalT = exec.CardBounds{LB: rt.Returned, UB: exec.SatMul(ruleT.UB, multT)}
		if totalT.UB < totalT.LB {
			totalT.UB = totalT.LB
		}
	}
	// The tight track never reports looser than the classic one (defensive
	// against non-monotone bounds rules).
	if totalT.UB > total.UB {
		totalT.UB = total.UB
	}
	if perRunT.UB > perRun.UB {
		perRunT.UB = perRun.UB
	}
	ev.snap.Nodes[n.snapIdx].Bounds = total
	ev.snap.Nodes[n.snapIdx].UBTight = totalT.UB
	ev.snap.LB = exec.SatAdd(ev.snap.LB, total.LB)
	ev.snap.UB = exec.SatAdd(ev.snap.UB, total.UB)
	ev.snap.UBTight = exec.SatAdd(ev.snap.UBTight, totalT.UB)
	return perRun, perRunT
}

// capToDemand applies a demand cap: the parent will never pull more than
// cap rows, and the truncating chain above stops early only at child EOF,
// so the node delivers exactly min(natural, cap) rows — the cap applies to
// the delivered lower bound too. Where counting equals delivery the same
// holds for the GetNext count; where it does not — a scan with an embedded
// predicate scans an unknown number of rows to find those deliveries, and a
// paged scan charges an unknown number of read units for them — the cap
// says nothing about the count, which keeps its static UB and only
// rows-already-returned as its LB.
func capToDemand(delivered, rule exec.CardBounds, sameEmission bool, cap int64) (exec.CardBounds, exec.CardBounds) {
	delivered = capBounds(delivered, cap)
	if sameEmission {
		rule = capBounds(rule, cap)
	} else {
		rule.LB = 0
	}
	return delivered, rule
}

// capBounds clamps both ends of b at cap.
func capBounds(b exec.CardBounds, cap int64) exec.CardBounds {
	if b.LB > cap {
		b.LB = cap
	}
	if b.UB > cap {
		b.UB = cap
	}
	return b
}

// refineWithRuntime tightens static bounds with execution feedback: at
// least the observed count; exactly the observed count at EOF.
func refineWithRuntime(b exec.CardBounds, observed int64, pinned bool) exec.CardBounds {
	if observed > b.LB {
		b.LB = observed
	}
	if pinned {
		b.LB, b.UB = observed, observed
	}
	if b.UB < b.LB {
		b.UB = b.LB
	}
	return b
}
