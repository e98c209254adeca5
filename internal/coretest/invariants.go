package coretest

import (
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
)

// CheckProgressInvariants executes op under a core.Monitor sampling dne,
// pmax, safe and dne-dynamic every `every` GetNext calls (1 = every call),
// and asserts:
//
//   - every rule of the one series checker, core.Series — hard bounds
//     LB <= total(Q) <= UB and the pessimistic UBTight inside them at every
//     instant, monotone bounds, progress <= pmax (Property 4), pmax within mu
//     (Theorem 5), safe within sqrt(UB/LB) (Theorem 6), every estimate within
//     [0, 1], the series ending at total(Q);
//   - a BoundsEvaluator reused across the run agrees exactly with a freshly
//     built one at every sample point (and at EOF), both folding the same
//     ledger read, for both the default and demand-cap-disabled options.
//
// It returns total(Q) so callers can chain further assertions.
func CheckProgressInvariants(t testing.TB, label string, op exec.Operator, every int64) int64 {
	t.Helper()
	m := core.NewMonitor(op, every, core.Dne{}, core.Pmax{}, core.Safe{}, core.DneDynamic{})
	equiv := newEquivChecker(op)
	m.OnSample = func(s core.Sample) { equiv.check(label, s.Calls) }
	if _, err := m.Run(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	total := m.Total()
	equiv.check(label, total)
	if equiv.err != nil {
		t.Fatal(equiv.err)
	}
	if total == 0 {
		return 0
	}
	if err := core.SeriesOf(label, &m.SampleSet).Check(); err != nil {
		t.Fatal(err)
	}
	return total
}
