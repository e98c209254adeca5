package core

import (
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// demandKind classifies how a node propagates demand caps to its input:
// only operators that pull at most one input row per output row do (Top
// pulls at most K; Project pulls exactly what it emits).
type demandKind uint8

const (
	demandNone demandKind = iota
	demandTop             // caps child 0 at min(K, this node's own cap)
	demandPass            // passes this node's own cap through to child 0
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

	demand demandKind
	topK   int64

	// PessimisticUB is the node's statistics-derived pessimistic bound on
	// delivered rows (exec.PessimisticBounder), folded into the tight upper
	// bound UBTight by the bounds pass; -1 when the operator carries none.
	PessimisticUB int64

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

// demandCaps fills caps (length len(n.Children)) with the per-child pull
// bounds this node propagates from its own cap (-1 = unbounded).
func (n *ShapeNode) demandCaps(selfCap int64, caps []int64) []int64 {
	for i := range caps {
		caps[i] = -1
	}
	if len(caps) == 0 {
		return caps
	}
	switch n.demand {
	case demandTop:
		c := n.topK
		if selfCap >= 0 && selfCap < c {
			c = selfCap
		}
		caps[0] = c
	case demandPass:
		caps[0] = selfCap
	}
	return caps
}

// earlyStops fills stops (length len(n.Children)) with the per-child
// may-stop flags: whether the child may be abandoned before EOF at a point
// no demand cap describes, which voids its static lower bound. Three
// sources: this node declares it (exec.EarlyStopper); this node may itself
// be stopped so and pulls the child on demand; or — the LIMIT rule — a Top
// may abandon its input before EOF, so every node in the streaming chain
// beneath it keeps only rows-already-returned as its LB, except where the
// demand cap (caps, as filled by demandCaps) pins a same-emission node's
// count to min(static, cap): a Top, or a node a Top's cap reaches, stops
// pulling at the cap, and that is a stop at an unknown point for each
// on-demand child the cap is not passed on to.
func (n *ShapeNode) earlyStops(selfMayStop bool, selfCap int64, caps []int64, stops []bool) []bool {
	for i := range stops {
		stops[i] = false
	}
	for _, i := range n.EarlyStops {
		stops[i] = true
	}
	stopsAtCap := n.demand == demandTop || selfCap >= 0
	onDemand := func(i int) {
		if selfMayStop || (stopsAtCap && caps[i] < 0) {
			stops[i] = true
		}
	}
	for _, i := range n.Stream {
		onDemand(i)
	}
	for i, rescanned := range n.Rescanned {
		if rescanned {
			onDemand(i)
		}
	}
	return stops
}

// PlanShape is the compile-time skeleton of a plan: one ShapeNode per plan
// node, indexed by NodeID. Together with the plan's ledger it is everything
// the bounds pass, pipeline decomposition, and estimators consume — the
// operator tree never appears on the sample path.
type PlanShape struct {
	Nodes []ShapeNode
	// HasPessimistic reports whether any node carries a pessimistic UB; when
	// false the tight bounds degenerate to the classic ones.
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
				shape.HasPessimistic = true
			}
		}
		switch t := op.(type) {
		case *exec.Top:
			n.demand, n.topK = demandTop, t.K
		case *exec.Project:
			n.demand = demandPass
		}
		n.Rule = op
		if db, ok := op.(exec.DeliveredBounder); ok {
			n.Delivered = db
		}
	})
	return shape, led
}
