package coretest

import (
	"fmt"
	"slices"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// equivChecker compares a long-lived BoundsEvaluator — built once before
// the run, its buffers reused by every pass — against a freshly built one
// on one plan, for both the default options and the demand-cap-disabled
// variant. Both fold the same ledger read, so they must agree exactly —
// same totals and the same per-node bounds in the same order — at every
// instant: anything else means a pass
// leaked state into the next, which is the one risk the evaluator's buffer
// reuse introduces.
type equivChecker struct {
	op       exec.Operator
	led      *ledger.Ledger
	read     []ledger.Snapshot
	variants []equivVariant
	err      error // the first disagreement
}

type equivVariant struct {
	name string
	opts core.BoundsOptions
	ev   *core.BoundsEvaluator
}

func newEquivChecker(op exec.Operator) *equivChecker {
	c := &equivChecker{
		op:  op,
		led: exec.EnsureLedger(op),
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

// check reads the ledger once, folds the read through both evaluators of
// every variant, and keeps the first disagreement in err. It may run on any
// goroutine, one call at a time.
func (c *equivChecker) check(label string, calls int64) {
	if c.err != nil {
		return
	}
	c.read = c.led.SnapshotAll(c.read)
	for _, v := range c.variants {
		got, want := v.ev.Fold(c.read), core.NewBoundsEvaluatorOpt(c.op, v.opts).Fold(c.read)
		if got.LB != want.LB || got.UB != want.UB || got.UBTight != want.UBTight || !slices.Equal(got.Nodes, want.Nodes) {
			c.err = fmt.Errorf("%s: [%s] at call %d reused evaluator %+v != fresh %+v", label, v.name, calls, *got, *want)
			return
		}
	}
}
