// Package coretest provides shared test support: an executable statement
// of the paper's progress-estimation guarantees, checked against any plan.
// CheckProgressInvariants runs an operator tree under a core.Monitor and
// holds the recorded series to the one series checker, core.Series, at
// every instant:
//
//   - LB <= total(Q) <= UB — Section 5.1's bounds are hard — and the
//     pessimistic bound inside them, Curr <= total(Q) <= UBTight <= UB;
//   - LB non-decreasing, UB and UBTight non-increasing;
//   - progress <= pmax (Property 4) and pmax's ratio error <= mu (Thm 5);
//   - safe's ratio error <= sqrt(UB/LB) at each instant (Definition 5);
//   - every estimate within [0, 1];
//
// and also asserts that a BoundsEvaluator reused across the run agrees
// exactly with a freshly built one at every sample point.
//
// The package also carries the engine-equivalence corpus: the same logical
// plan run exactly (a per-call hook installed, so every pull is one
// GetNext), in bulk pulls (no hook) and over paged storage must produce the
// identical result rows in order, total calls and final per-node ledger.
// What a sampler reads during a bulk run is held to the paper's bounds by
// CheckTornReads, which folds every ledger read a sampler can take between
// two credits, torn reads included.
//
// Production code must not import coretest.
package coretest
