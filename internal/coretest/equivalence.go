package coretest

import (
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
)

// equivChecker compares a long-lived BoundsEvaluator — built once before
// the run, its buffers reused by every Compute — against a freshly built one
// (core.ComputeBoundsOpt) on one plan, for both the default options and the
// demand-cap-disabled variant. The two must agree exactly — same totals and
// the same per-node bounds in the same order — at every instant: anything
// else means a Compute leaked state into the next, which is the one risk
// the evaluator's buffer reuse introduces.
type equivChecker struct {
	op       exec.Operator
	variants []equivVariant
}

type equivVariant struct {
	name string
	opts core.BoundsOptions
	ev   *core.BoundsEvaluator
}

func newEquivChecker(op exec.Operator) *equivChecker {
	c := &equivChecker{
		op: op,
		variants: []equivVariant{
			{name: "default"},
			{name: "nocap", opts: core.BoundsOptions{DisableDemandCap: true}},
		},
	}
	for i := range c.variants {
		c.variants[i].ev = core.NewBoundsEvaluatorOpt(op, c.variants[i].opts)
	}
	return c
}

// check asserts snapshot equality at the current instant.
func (c *equivChecker) check(t testing.TB, label string, calls int64) {
	t.Helper()
	for _, v := range c.variants {
		got := v.ev.Compute()
		want := core.ComputeBoundsOpt(c.op, v.opts)
		if got.LB != want.LB || got.UB != want.UB || got.UBTight != want.UBTight {
			t.Fatalf("%s: [%s] at call %d reused evaluator bounds [%d,%d,%d] != fresh [%d,%d,%d]",
				label, v.name, calls, got.LB, got.UB, got.UBTight, want.LB, want.UB, want.UBTight)
		}
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%s: [%s] at call %d reused evaluator has %d nodes, fresh %d",
				label, v.name, calls, len(got.Nodes), len(want.Nodes))
		}
		for j := range want.Nodes {
			if got.Nodes[j] != want.Nodes[j] {
				t.Fatalf("%s: [%s] at call %d node %d reused evaluator %+v != fresh %+v",
					label, v.name, calls, j, got.Nodes[j], want.Nodes[j])
			}
		}
	}
}
