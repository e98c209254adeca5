package core

import (
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// BoundsEvaluator is the bounds pass: the one implementation of the
// per-node bounds arithmetic (Section 5.1). It reads the plan's static
// structure — child lists, rescans, demand caps, may-stop flags, bounds
// rules — from the PlanShape alone, and each pass folds PlanShape.Nodes by
// NodeID over one read of the ledger (Ledger.SnapshotAll, indexed by
// NodeID) into per-node scratch preallocated at construction, an
// allocation-free sweep, which is what lets a monitor sample frequently
// without throttling the executor. No exec.Operator is touched and no
// ledger slot is read during the fold: every runtime fact comes from the one
// read, so the bounds describe the same instant as the Curr summed from it.
// One-shot callers build a fresh evaluator and Compute once.
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
//     demand is itself bounded (ShapeNode.DemandCap: Top/Project chains);
//   - nodes an ancestor may stop pulling early (ShapeNode.MayStop) keep no
//     static lower bound: the query may finish with them short of EOF, so
//     only rows already returned bound them from below.
//
// One track function, eval, runs the arithmetic. The classic track runs
// first and records each node's Bounds and per-run bounds. When the plan
// carries pessimistic degree-norm bounds (PlanShape.HasPessimistic) the
// tight track runs the same function again, capping each pessimistic node's
// rule at ShapeNode.PessimisticUB, propagating the tightened child bounds
// upward, and clamping each node's total and per-run UB to what the classic
// track recorded there; its totals are the per-node UBTight. It re-derives
// only what a pessimistic bound can change: outside rescanned subtrees, a
// subtree with no pessimistic bound (ShapeNode.PessimisticBelow), and a node
// without one whose children's tight bounds are their classic ones, keep
// their classic fold. Otherwise UBTight is a copy of UB.
//
// The read it folds is one instant of the run: a pass runs on the goroutine
// that runs the plan (see DESIGN.md, "Concurrency model & monitoring
// overhead"). Because every node's refined LB covers its own Returned in
// that read, the plan LB covers the read's Curr. The evaluator is not
// reentrant.
type BoundsEvaluator struct {
	shape *PlanShape
	led   *ledger.Ledger
	snap  BoundsSnapshot      // Nodes indexed by NodeID
	read  []ledger.Snapshot   // Compute's ledger read, reused
	kids  [][]exec.CardBounds // per node: its children's per-run bounds, scratch
	runs  []exec.CardBounds   // per node: the classic track's per-run bounds
}

// NewBoundsEvaluator prepares an incremental evaluator for the plan rooted
// at root, binding the plan's ledger if needed.
func NewBoundsEvaluator(root exec.Operator) *BoundsEvaluator {
	shape, led := ShapeOf(root)
	return newEvaluator(shape, led)
}

// newEvaluator prepares an incremental evaluator over an already-derived
// (PlanShape, *Ledger) pair.
func newEvaluator(shape *PlanShape, led *ledger.Ledger) *BoundsEvaluator {
	n := shape.Len()
	ev := &BoundsEvaluator{shape: shape, led: led, kids: make([][]exec.CardBounds, n), runs: make([]exec.CardBounds, n)}
	ev.snap.Nodes = make([]NodeBounds, n)
	scratch := make([]exec.CardBounds, n) // every node but the root is one child
	for i := range shape.Nodes {
		ev.snap.Nodes[i].ID = ledger.NodeID(i)
		k := len(shape.Nodes[i].Children)
		ev.kids[i], scratch = scratch[:k:k], scratch[k:]
	}
	return ev
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
	ev.snap.LB, ev.snap.UB = 0, 0
	ev.eval(0, nodes, 1, false)
	ev.snap.UBTight = ev.snap.UB
	if ev.shape.HasPessimistic {
		ev.eval(0, nodes, 1, true)
		ev.snap.UBTight = 0
		for i := range ev.snap.Nodes {
			ev.snap.UBTight = exec.SatAdd(ev.snap.UBTight, ev.snap.Nodes[i].UBTight)
		}
	}
	return &ev.snap
}

// bounds returns the latest pass's total-count bounds on node id.
func (ev *BoundsEvaluator) bounds(id ledger.NodeID) exec.CardBounds {
	return ev.snap.Nodes[id].Bounds
}

// eval returns per-run bounds on node id's *delivered* rows (what the
// parent's bounds rule expects) while recording bounds on its GetNext count
// in the snapshot and folding them into the plan totals. The two differ only
// for scans with embedded predicates. mult bounds how many times this
// subtree may be re-opened (1 outside nested loops); nodes is the read being
// folded. The classic track (tight false) records Bounds, LB, UB and the
// per-run bounds; the tight track records UBTight, never looser than the
// classic track at the same node.
func (ev *BoundsEvaluator) eval(id ledger.NodeID, nodes []ledger.Snapshot, mult int64, tight bool) exec.CardBounds {
	n, kids := &ev.shape.Nodes[id], ev.kids[id]
	if tight && !n.PessimisticBelow && !n.UnderRescan {
		// No pessimistic bound below, and the classic multiplier (1): the
		// tight track would fold this subtree exactly as the classic one did.
		return ev.runs[id]
	}
	for i, c := range n.Children {
		if !n.Rescanned[i] {
			kids[i] = ev.eval(c, nodes, mult, tight)
		}
	}
	if n.HasRescan {
		var driveUB int64 = exec.Unbounded
		if n.FirstStream >= 0 {
			driveUB = kids[n.FirstStream].UB
		}
		for i, c := range n.Children {
			if n.Rescanned[i] {
				kids[i] = ev.eval(c, nodes, exec.SatMul(mult, driveUB), tight)
			}
		}
	}

	if tight && n.PessimisticUB < 0 && !n.UnderRescan && ev.classicKids(n, kids) {
		// Nothing tightened below: this node folds as in the classic track.
		return ev.runs[id]
	}
	// Pinned (at EOF, never re-opened, outside rescans): the observed counts
	// are exact, whatever the rule would say.
	rt := nodes[id]
	total, perRun := exec.CardBounds{LB: rt.Returned, UB: rt.Returned}, exec.CardBounds{LB: rt.Delivered, UB: rt.Delivered}
	if mult != 1 || !rt.Done || rt.Rescans != 0 {
		total, perRun = ruleBounds(n, kids, rt, mult, tight)
	}
	nb := &ev.snap.Nodes[id]
	if !tight {
		nb.Bounds, nb.UBTight, ev.runs[id] = total, total.UB, perRun
		ev.snap.LB = exec.SatAdd(ev.snap.LB, total.LB)
		ev.snap.UB = exec.SatAdd(ev.snap.UB, total.UB)
		return perRun
	}
	// The tight track never reports looser than the classic one (defensive
	// against non-monotone bounds rules).
	nb.UBTight = min(total.UB, nb.Bounds.UB)
	perRun.UB = min(perRun.UB, ev.runs[id].UB)
	return perRun
}

// ruleBounds is eval's total and per-run bounds at a node the run has not
// pinned: its static rule over kids, capped, refined with its counters rt.
func ruleBounds(n *ShapeNode, kids []exec.CardBounds, rt ledger.Snapshot, mult int64, tight bool) (total, perRun exec.CardBounds) {
	rule := n.Rule.FinalBounds(kids)
	if tight && n.PessimisticUB >= 0 {
		// The pessimistic bound caps delivered rows; for the operators that
		// carry one, counted calls equal delivered rows, so it caps both
		// (capping the static LB too: two sound intervals cannot truly be
		// disjoint, so the cap only bites where the LB was not).
		rule = capBounds(rule, n.PessimisticUB)
	}
	deliveredRule := rule
	if n.Delivered != nil {
		deliveredRule = n.Delivered.DeliveredBounds()
	}
	sameEmission := deliveredRule == rule
	if n.MayStop {
		// An ancestor may stop pulling before this node reaches EOF: the
		// static rules' lower bounds assume a full drain and are unsound
		// here. refineWithRuntime restores LB = rows already returned.
		rule.LB, deliveredRule.LB = 0, 0
	}
	if mult == 1 {
		if n.DemandCap >= 0 {
			deliveredRule, rule = capToDemand(deliveredRule, rule, sameEmission, n.DemandCap)
		}
		return refineWithRuntime(rule, rt.Returned), refineWithRuntime(deliveredRule, rt.Delivered)
	}
	// Under a rescanned subtree: per-run bounds stay static, totals
	// accumulate across runs.
	return exec.CardBounds{LB: rt.Returned, UB: max(exec.SatMul(rule.UB, mult), rt.Returned)}, deliveredRule
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
// least the observed count (a pinned node's bounds are the count itself, see
// eval).
func refineWithRuntime(b exec.CardBounds, observed int64) exec.CardBounds {
	if observed > b.LB {
		b.LB = observed
	}
	if b.UB < b.LB {
		b.UB = b.LB
	}
	return b
}

// classicKids reports whether the tight track's bounds on n's children,
// kids, are the classic track's.
func (ev *BoundsEvaluator) classicKids(n *ShapeNode, kids []exec.CardBounds) bool {
	for i, c := range n.Children {
		if kids[i] != ev.runs[c] {
			return false
		}
	}
	return true
}
