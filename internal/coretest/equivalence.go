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
// on one plan. Both fold the same ledger read, so they must agree exactly —
// same totals and the same per-node bounds in the same order — at every
// instant: anything else means a pass leaked state into the next, which is
// the one risk the evaluator's buffer reuse introduces.
type equivChecker struct {
	op   exec.Operator
	led  *ledger.Ledger
	read []ledger.Snapshot
	ev   *core.BoundsEvaluator
	err  error // the first disagreement
}

func newEquivChecker(op exec.Operator) *equivChecker {
	return &equivChecker{op: op, led: exec.EnsureLedger(op), ev: core.NewBoundsEvaluator(op)}
}

// check reads the ledger once, folds the read through both evaluators, and
// keeps the first disagreement in err. It may run on any goroutine, one
// call at a time.
func (c *equivChecker) check(label string, calls int64) {
	if c.err != nil {
		return
	}
	c.read = c.led.SnapshotAll(c.read)
	got, want := c.ev.Fold(c.read), core.NewBoundsEvaluator(c.op).Fold(c.read)
	if got.LB != want.LB || got.UB != want.UB || got.UBTight != want.UBTight || !slices.Equal(got.Nodes, want.Nodes) {
		c.err = fmt.Errorf("%s: at call %d reused evaluator %+v != fresh %+v", label, calls, *got, *want)
	}
}
