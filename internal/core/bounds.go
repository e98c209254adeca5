package core

import (
	"fmt"
	"math"
	"strings"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// NodeBounds pairs a plan node (by ledger NodeID) with bounds on its final
// total row count (across rescans, for nested-loops inners).
type NodeBounds struct {
	ID     ledger.NodeID
	Bounds exec.CardBounds
	// UBTight is the node's total-count upper bound with pessimistic
	// (degree-norm) join bounds folded in; UBTight <= Bounds.UB always, and
	// equals Bounds.UB when no pessimistic bound reaches the node.
	UBTight int64
}

// BoundsSnapshot is the result of one bounds pass over the plan at some
// instant of the execution: per-node bounds and their sums, which bound
// total(Q) (Section 5.1).
type BoundsSnapshot struct {
	Nodes []NodeBounds
	// LB and UB bound the total number of GetNext calls the query will
	// perform: LB <= total(Q) <= UB.
	LB, UB int64
	// UBTight also bounds total(Q) from above, additionally folding in any
	// pessimistic degree-sequence join bounds (ShapeNode.PessimisticUB):
	// LB <= total(Q) <= UBTight <= UB. Equal to UB when the plan carries no
	// pessimistic bounds.
	UBTight int64
}

// scannedLeaves sums the cardinalities of the plan's leaf nodes that are
// scanned exactly once, in full — the denominator of the paper's mu
// (Section 5.2) — its runtime facts from nodes, one read of the ledger
// indexed by NodeID. Leaves inside rescanned nested-loops inners
// (UnderRescan) are excluded, and so are leaves an ancestor may stop pulling
// before EOF (MayStop, or under a LIMIT's DemandCap): Theorem 5 needs LB to
// cover the denominator, and the bounds pass promises no rows of those. For
// leaves whose exact cardinality is not static (range scans without runtime
// completion), the lower bound is used, keeping mu's guarantee direction
// intact (mu computed this way can only over-estimate). Weighted leaves
// (paged scans charging physical-read units) have their ledger count
// deflated by the worst-case unit charge for the same reason: the
// denominator must never exceed the rows actually scanned.
func scannedLeaves(shape *PlanShape, nodes []ledger.Snapshot) int64 {
	var total int64
	for id := range shape.Nodes {
		n := &shape.Nodes[id]
		if !n.IsLeaf() || n.UnderRescan || n.MayStop || n.DemandCap >= 0 {
			continue
		}
		lb := n.Rule.FinalBounds(nil).LB
		if rt := nodes[id]; rt.Done && rt.Rescans == 0 {
			ret := rt.Returned
			if wl, ok := n.Rule.(exec.WeightedLeaf); ok {
				ret -= wl.MaxReadUnits()
			}
			lb = max(lb, ret)
		}
		total += lb
	}
	return total
}

// Mu computes the paper's mu for a completed execution: total(Q) divided by
// the summed cardinality of the scanned leaves (a sum of 0 counts as 1, like
// LB). pmax's ratio error is at most this value (Theorem 5). Every counted
// leaf's rows are part of total(Q), so a mu below 1 is an accounting bug.
func Mu(root exec.Operator) float64 {
	ev := NewBoundsEvaluator(root)
	return ev.mu(ev.led.SnapshotAll(nil))
}

// mu is Mu over nodes, one read of the finished run's ledger: total(Q) is
// the read's Curr.
func (ev *BoundsEvaluator) mu(nodes []ledger.Snapshot) float64 {
	total, leaves := curr(nodes), scannedLeaves(ev.shape, nodes)
	if leaves < 1 {
		// No leaf counts (all under a LIMIT or a merge join, or empty).
		return math.Max(1, float64(total))
	}
	return float64(total) / float64(leaves)
}

// curr sums a ledger read's Returned counters: the query's GetNext calls at
// the read's instant, the paper's Curr.
func curr(nodes []ledger.Snapshot) int64 {
	var total int64
	for _, n := range nodes {
		total += n.Returned
	}
	return total
}

// ExplainBounds renders the plan tree with each node's current cardinality
// bounds and runtime counters — the Section 5.1 state, made visible, every
// figure from the one ledger read the bounds pass folded. Useful when
// debugging why pmax or safe behaves as it does on a plan.
func ExplainBounds(root exec.Operator) string {
	ev := NewBoundsEvaluator(root)
	snap := ev.Compute()
	var b strings.Builder
	fmt.Fprintf(&b, "total bounds: LB=%d UB=%d UBtight=%d (Curr=%d)\n", snap.LB, snap.UB, snap.UBTight, curr(ev.read))
	var rec func(op exec.Operator, depth int)
	rec = func(op exec.Operator, depth int) {
		rt, nb := ev.read[op.LedgerID()], ev.bounds(op.LedgerID())
		ubStr := fmt.Sprintf("%d", nb.UB)
		if nb.UB >= exec.Unbounded {
			ubStr = "inf"
		}
		fmt.Fprintf(&b, "%s%s  [rows=%d done=%v bounds=[%d,%s]]\n",
			strings.Repeat("  ", depth), op.Name(), rt.Returned, rt.Done, nb.LB, ubStr)
		for _, c := range op.Children() {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}
