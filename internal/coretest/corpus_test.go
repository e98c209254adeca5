package coretest

import (
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/fault"
	"sqlprogress/internal/ledger"
)

// TestCorpusCleanInvariants runs every corpus entry fault-free through both
// the testing.TB checker and the chaos runner's error-returning path, so a
// corpus regression is caught before the chaos sweep ever injects a fault.
func TestCorpusCleanInvariants(t *testing.T) {
	for _, entry := range Corpus() {
		t.Run(entry.Label, func(t *testing.T) {
			CheckProgressInvariants(t, entry.Label, entry.Build(), 1)
			if err := RunChaosSchedule(entry, fault.Schedule{}); err != nil {
				t.Fatalf("%v", err)
			}
		})
	}
}

// TestLedgerIsTheOnlyHome: a node counts only into its ledger slot, bound
// before Open, and its work is the rows it hands its parent. After a run of
// every corpus plan in either regime — exact ("row", a hook installed) or
// bulk ("batch") — each node reads its ledger slot, one read of the ledger
// sums to the run's Curr, the root has delivered the result's rows, a Top's
// child has delivered at most K, and the ledger bound before the run is
// still the plan's ledger.
func TestLedgerIsTheOnlyHome(t *testing.T) {
	for _, entry := range Corpus() {
		for _, engine := range []string{"row", "batch"} {
			t.Run(entry.Label+"/"+engine, func(t *testing.T) {
				op := entry.Build()
				led := exec.EnsureLedger(op)
				run := mustRun(t, engine, op, 0, engine == "row")
				id := ledger.NodeID(0)
				exec.Walk(op, func(o exec.Operator) {
					if o.LedgerID() != id {
						t.Errorf("%s: ledger id %d, want pre-order %d", o.Name(), o.LedgerID(), id)
					} else if got, want := exec.NodeSnapshot(o), led.Slot(id).Snapshot(); got != want {
						t.Errorf("%s: node snapshot %+v, ledger slot %+v", o.Name(), got, want)
					}
					if top, ok := o.(*exec.Top); ok {
						if d := run.final[id+1].Delivered; d > top.K {
							t.Errorf("%s's child delivered %d rows", o.Name(), d)
						}
					}
					id++
				})
				var total int64
				for _, n := range run.final {
					total += n.Returned
				}
				if total != run.calls {
					t.Errorf("ledger read sums to %d, Curr %d", total, run.calls)
				}
				if d := run.final[0].Delivered; d != int64(len(run.rows)) {
					t.Errorf("root delivered %d rows, result has %d", d, len(run.rows))
				}
				if again := exec.EnsureLedger(op); again != led {
					t.Error("binding a bound plan again returned a different ledger")
				}
			})
		}
	}
}

// TestMergeJoinEarlyStopBounds pins the EarlyStopper fix: a merge join
// stops pulling the surviving side once the other exhausts (here the right
// side's zipf keys run out long before the left's key space), leaving that
// side's Sort short of EOF. Before the fix, the Sort kept its static
// LB = input cardinality and the plan-wide LB overshot total(Q) — a hard
// bounds violation.
func TestMergeJoinEarlyStopBounds(t *testing.T) {
	var entry CorpusEntry
	for _, e := range Corpus() {
		if e.Label == "merge-join" {
			entry = e
		}
	}
	root := entry.Build()
	tracker := core.NewTracker(root)
	ctx := exec.NewCtx()
	var worstLB int64
	ctx.OnGetNext = func(int64) {
		if s := tracker.Capture(); s.LB > worstLB {
			worstLB = s.LB
		}
	}
	if _, err := exec.RunBatch(ctx, root); err != nil {
		t.Fatal(err)
	}
	total := ctx.Calls()
	if worstLB > total {
		t.Fatalf("LB reached %d, exceeding total(Q) %d", worstLB, total)
	}
	fin := tracker.Capture()
	if fin.LB > total || fin.UB < total {
		t.Fatalf("final bounds [%d,%d] miss total %d", fin.LB, fin.UB, total)
	}
	// The early stop is real on this data: the left sort must end short of
	// its input cardinality, or the regression scenario has silently
	// disappeared and this test is vacuous.
	sortL := root.Children()[0]
	if got, want := exec.NodeSnapshot(sortL).Returned, int64(80); got >= want {
		t.Fatalf("left sort drained fully (%d rows); corpus no longer exercises early stop", got)
	}
}
