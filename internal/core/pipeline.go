// Package core implements the paper's contribution: progress estimation for
// SQL queries under the GetNext model.
//
// It provides
//
//   - pipeline decomposition of a plan shape with driver-node
//     identification (Section 4.1),
//   - continuously-refined lower/upper bounds on every node's cardinality
//     and hence on total(Q) (Section 5.1),
//   - the estimators dne (Definition 1), pmax (Definition 3), safe
//     (Definition 5), the trivial estimator, and the heuristic combinations
//     of Section 6.4,
//   - a Monitor that samples estimates during execution, and error metrics
//     (ratio error, threshold requirement, absolute errors) to evaluate
//     them (Section 2.5).
//
// All sampling consumes (PlanShape, *Ledger) — the static plan skeleton
// plus the flat block of per-node counters — never the operator
// tree itself.
package core

import "sqlprogress/internal/ledger"

// Pipeline is a maximal set of concurrently-executing operators in a serial
// execution of the plan, in the sense of [5, 13]: blocking inputs (hash-join
// build sides, sort and hash-aggregation inputs) and rescanned nested-loops
// inners start new pipelines. Nodes are identified by their ledger NodeID.
type Pipeline struct {
	// Root is the topmost node of the pipeline (the plan root, or a node
	// whose output feeds a blocking consumer).
	Root ledger.NodeID
	// Ops lists every node in the pipeline, in pre-order from Root.
	Ops []ledger.NodeID
	// Drivers are the pipeline's input nodes — nodes with no streaming
	// children: base-table leaves, or blocking operators (a completed sort)
	// whose output drives this pipeline. dne measures progress at these
	// nodes. A pipeline can have several drivers (e.g. both inputs of a
	// merge join), the case the paper's footnote 1 notes.
	Drivers []ledger.NodeID
}

// Pipelines decomposes the plan shape. The root's own pipeline comes first;
// sub-pipelines follow in pre-order.
func Pipelines(shape *PlanShape) []Pipeline {
	var out []*Pipeline
	var decompose func(id ledger.NodeID)
	decompose = func(id ledger.NodeID) {
		p := &Pipeline{Root: id}
		out = append(out, p)
		var collect func(id ledger.NodeID)
		collect = func(id ledger.NodeID) {
			n := shape.Node(id)
			p.Ops = append(p.Ops, id)
			stream := make(map[int]bool)
			for _, i := range n.Stream {
				stream[i] = true
			}
			if len(stream) == 0 {
				p.Drivers = append(p.Drivers, id)
			}
			for i, c := range n.Children {
				if stream[i] {
					collect(c)
				} else {
					decompose(c)
				}
			}
		}
		collect(id)
	}
	decompose(shape.Root().ID)
	res := make([]Pipeline, len(out))
	for i, p := range out {
		res[i] = *p
	}
	return res
}
