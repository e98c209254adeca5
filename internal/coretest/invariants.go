package coretest

import (
	"sync"
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
)

// CheckProgressInvariants executes op, sampling the progress machinery
// every `every` GetNext calls (1 = every call), and asserts the paper's
// guarantees:
//
//   - LB <= total(Q) <= UB at every instant (Section 5.1's bounds are hard),
//   - LB non-decreasing, UB non-increasing,
//   - progress <= pmax (Property 4) and pmax's ratio error <= mu (Thm 5),
//   - safe's ratio error <= sqrt(UB/LB) at each instant (Definition 5),
//   - every estimate within [0, 1],
//   - a BoundsEvaluator reused across the run agrees exactly with a freshly
//     built one at every sample point (and at EOF), for both the default
//     and demand-cap-disabled options.
//
// It returns total(Q) so callers can chain further assertions.
func CheckProgressInvariants(t testing.TB, label string, op exec.Operator, every int64) int64 {
	t.Helper()
	return checkInvariants(t, label, op, every, false)
}

// CheckParallelInvariants is CheckProgressInvariants for plans containing a
// parallel operator: GetNext calls fire concurrently from worker goroutines,
// so sampling is serialized behind a mutex and each sample anchors to the
// ledger total its own capture read (the paper's Curr) rather than the
// triggering worker's call count. The reused-vs-fresh evaluator equivalence
// is asserted only at quiescence — mid-run the two passes read live counters
// at different instants, so element-wise equality is not defined for them.
// Every per-instant guarantee (hard bounds, monotonicity, pmax, safe) is
// still asserted at every sample.
func CheckParallelInvariants(t testing.TB, label string, op exec.Operator, every int64) int64 {
	t.Helper()
	return checkInvariants(t, label, op, every, true)
}

func checkInvariants(t testing.TB, label string, op exec.Operator, every int64, parallel bool) int64 {
	t.Helper()
	if every < 1 {
		every = 1
	}
	tracker := core.NewTracker(op)
	equiv := newEquivChecker(op)
	type snap struct {
		calls  int64
		lb, ub int64
		pmax   float64
		safe   float64
		dne    float64
		dyn    float64
		bound  float64
	}
	var snaps []snap
	var mu sync.Mutex
	var last int64
	ctx := exec.NewCtx()
	ctx.OnGetNext = func(calls int64) {
		if calls%every != 0 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if calls <= last && parallel {
			// Another worker's sample already covered this instant.
			return
		}
		last = calls
		if !parallel {
			equiv.check(t, label, calls)
		}
		s := tracker.Capture()
		snaps = append(snaps, snap{
			calls: s.Curr, lb: s.LB, ub: s.UB,
			pmax:  (core.Pmax{}).Estimate(s),
			safe:  (core.Safe{}).Estimate(s),
			dne:   (core.Dne{}).Estimate(s),
			dyn:   (core.DneDynamic{}).Estimate(s),
			bound: core.SafeErrorBound(s),
		})
	}
	if _, err := exec.Run(ctx, op); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	total := ctx.Calls()
	equiv.check(t, label, total)
	if total == 0 {
		return 0
	}
	mucost := core.Mu(op)
	for i, s := range snaps {
		if s.lb > total || s.ub < total {
			t.Fatalf("%s: sample %d bounds [%d,%d] miss total %d", label, i, s.lb, s.ub, total)
		}
		if i > 0 {
			if s.lb < snaps[i-1].lb {
				t.Fatalf("%s: LB decreased at sample %d", label, i)
			}
			if s.ub > snaps[i-1].ub {
				t.Fatalf("%s: UB increased at sample %d", label, i)
			}
		}
		actual := float64(s.calls) / float64(total)
		if s.pmax < actual-1e-9 {
			t.Fatalf("%s: pmax %f underestimated %f at sample %d", label, s.pmax, actual, i)
		}
		if r := core.RatioError(actual, s.pmax); r > mucost+1e-9 {
			t.Fatalf("%s: pmax ratio error %f exceeds mu %f at sample %d", label, r, mucost, i)
		}
		if r := core.RatioError(actual, s.safe); r > s.bound*(1+1e-9) {
			t.Fatalf("%s: safe ratio error %f exceeds sqrt(UB/LB) %f at sample %d", label, r, s.bound, i)
		}
		for _, est := range []float64{s.pmax, s.safe, s.dne, s.dyn} {
			if est < 0 || est > 1 {
				t.Fatalf("%s: estimate %f out of [0,1] at sample %d", label, est, i)
			}
		}
	}
	return total
}
