package core

import (
	"slices"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// ShapeNode is the static, immutable description of one plan node: the
// structure and configuration the progress machinery needs, divorced from
// the operator that executes it. Runtime counters live in the matching
// ledger slot; a sampler combining the two never touches exec.Operator.
type ShapeNode struct {
	// ID is the node's ledger NodeID (its dense pre-order index, which is
	// also its position in PlanShape.Nodes).
	ID ledger.NodeID
	// Name is the operator's display name (plan explanation).
	Name string
	// EstCard is the plan-time cardinality estimate (-1 when absent).
	EstCard int64
	// Children lists the node's plan-tree inputs by NodeID.
	Children []ledger.NodeID

	// Rescanned flags children re-opened per driving row (parallel to
	// Children); HasRescan is its disjunction.
	Rescanned []bool
	HasRescan bool
	// Stream is the child indexes executing in this node's pipeline, as
	// reported by the operator. FirstStream is Stream[0], or -1 when none.
	Stream      []int
	FirstStream int
	// EarlyStops lists child indexes the node may abandon before EOF
	// (exec.EarlyStopper).
	EarlyStops []int

	// DemandCap bounds how many rows the node's ancestors will ever pull
	// from it (-1 = unbounded): a Top pulls at most K rows from its input, a
	// Project passes its own cap on, and no other operator propagates one.
	DemandCap int64
	// MayStop marks a node an ancestor may abandon before EOF at a point no
	// demand cap describes, which voids its static lower bound. Three
	// sources: the parent declares it (EarlyStops); the parent may itself be
	// stopped so and pulls the node on demand; or — the LIMIT rule — the
	// parent stops pulling at a cap (a Top, or a node a Top's cap reaches)
	// and does not pass that cap on to this on-demand child.
	MayStop bool
	// UnderRescan marks a node inside a subtree some ancestor re-opens per
	// driving row (a nested-loops inner).
	UnderRescan bool

	// PessimisticUB is the node's statistics-derived pessimistic bound on
	// delivered rows (exec.PessimisticBounder), folded into the tight upper
	// bound UBTight by the bounds pass; -1 when the operator carries none.
	PessimisticUB int64
	// PessimisticBelow reports whether the node or a descendant carries a
	// PessimisticUB: elsewhere the tight track folds as the classic one.
	PessimisticBelow bool

	// Rule bounds the node's final GetNext-call count given bounds on its
	// children's delivered rows — the operator narrowed to its FinalBounds
	// method. It reads only static configuration. (An interface rather than
	// a method value: rule dispatch is on the per-sample hot path, and a
	// direct interface call skips the method-value wrapper hop.)
	Rule FinalBounder
	// Delivered is non-nil iff the operator's delivered-row count can lag
	// its call count (exec.DeliveredBounder); same static-only contract.
	Delivered exec.DeliveredBounder
}

// FinalBounder is the one slice of the operator contract the bounds rules
// dispatch through at sample time: static final-count bounds from child
// bounds. No other exec.Operator method is reachable from a ShapeNode.
type FinalBounder interface {
	FinalBounds(children []exec.CardBounds) exec.CardBounds
}

// IsLeaf reports whether the node has no plan-tree inputs.
func (n *ShapeNode) IsLeaf() bool { return len(n.Children) == 0 }

// PlanShape is the compile-time skeleton of a plan: one ShapeNode per plan
// node, indexed by NodeID (pre-order, so a parent precedes its children).
// Together with the plan's ledger it is everything the bounds pass,
// pipeline decomposition, and estimators consume — the bounds pass folds
// Nodes directly, and the operator tree never appears on the sample path.
type PlanShape struct {
	Nodes []ShapeNode
	// HasPessimistic reports whether any node carries a pessimistic UB; when
	// false the tight bounds degenerate to the classic ones and the bounds
	// pass skips its tight track.
	HasPessimistic bool
}

// Len returns the number of plan nodes.
func (s *PlanShape) Len() int { return len(s.Nodes) }

// Root returns the root node (NodeID 0 by the pre-order numbering).
func (s *PlanShape) Root() *ShapeNode { return &s.Nodes[0] }

// Node returns the shape node for id.
func (s *PlanShape) Node(id ledger.NodeID) *ShapeNode { return &s.Nodes[id] }

// ShapeOf binds the plan rooted at root to its progress ledger (assigning
// dense NodeIDs if not already bound) and derives its PlanShape. The shape
// captures every static fact the progress machinery needs, so after this
// one walk all sampling works off (PlanShape, *Ledger) alone.
func ShapeOf(root exec.Operator) (*PlanShape, *ledger.Ledger) {
	led := exec.EnsureLedger(root)
	shape := &PlanShape{Nodes: make([]ShapeNode, led.Len())}
	shape.Nodes[0].DemandCap = -1
	exec.Walk(root, func(op exec.Operator) {
		id := op.LedgerID()
		n := &shape.Nodes[id]
		n.ID = id
		n.Name = op.Name()
		n.EstCard = op.EstimatedCard()
		children := op.Children()
		n.Children = make([]ledger.NodeID, len(children))
		for i, c := range children {
			n.Children[i] = c.LedgerID()
		}
		n.Rescanned = make([]bool, len(children))
		if r, ok := op.(exec.Rescanner); ok {
			for _, i := range r.RescannedChildren() {
				n.Rescanned[i] = true
				n.HasRescan = true
			}
		}
		n.Stream = op.StreamChildren()
		n.FirstStream = -1
		if len(n.Stream) > 0 {
			n.FirstStream = n.Stream[0]
		}
		if es, ok := op.(exec.EarlyStopper); ok {
			n.EarlyStops = es.EarlyStopChildren()
		}
		n.PessimisticUB = -1
		if pb, ok := op.(exec.PessimisticBounder); ok {
			if ub := pb.PessimisticUB(); ub >= 0 {
				n.PessimisticUB = ub
			}
		}
		n.Rule = op
		if db, ok := op.(exec.DeliveredBounder); ok {
			n.Delivered = db
		}
		// The walk is pre-order, so this node's own DemandCap, MayStop and
		// UnderRescan are set; derive its children's.
		firstCap, stopsAtCap := int64(-1), n.DemandCap >= 0
		switch t := op.(type) {
		case *exec.Top:
			firstCap, stopsAtCap = t.K, true
			if n.DemandCap >= 0 && n.DemandCap < firstCap {
				firstCap = n.DemandCap
			}
		case *exec.Project:
			firstCap = n.DemandCap
		}
		for i, id := range n.Children {
			c := &shape.Nodes[id]
			c.DemandCap = -1
			if i == 0 {
				c.DemandCap = firstCap
			}
			c.UnderRescan = n.UnderRescan || n.Rescanned[i]
			onDemand := n.Rescanned[i] || slices.Contains(n.Stream, i)
			c.MayStop = slices.Contains(n.EarlyStops, i) ||
				onDemand && (n.MayStop || stopsAtCap && c.DemandCap < 0)
		}
	})
	// A reverse sweep settles every child before its parent.
	for id := len(shape.Nodes) - 1; id >= 0; id-- {
		n := &shape.Nodes[id]
		n.PessimisticBelow = n.PessimisticUB >= 0
		for _, c := range n.Children {
			n.PessimisticBelow = n.PessimisticBelow || shape.Nodes[c].PessimisticBelow
		}
	}
	shape.HasPessimistic = shape.Nodes[0].PessimisticBelow
	return shape, led
}
