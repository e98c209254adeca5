package exec

import (
	"testing"

	"sqlprogress/internal/ledger"
)

// lockstepPair builds a concurrent and a lockstep exchange over identical
// 4-way partition scans of the same relation.
func lockstepPair(n int) (conc, lock *Exchange) {
	rel := seqRel("r", n)
	conc, lock = NewParallelStoreScan(rel, 4), NewParallelStoreScan(rel, 4)
	Lockstep(lock)
	return conc, lock
}

// TestExchangeLockstepMatchesConcurrent: lockstep drain must produce the same
// row multiset, the same global call count, and the same final per-node
// ledger as the goroutine-based exchange, under both engines.
func TestExchangeLockstepMatchesConcurrent(t *testing.T) {
	for _, batch := range []bool{false, true} {
		conc, lock := lockstepPair(233)
		run := Run
		if batch {
			run = RunBatch
		}
		cctx, lctx := NewCtx(), NewCtx()
		want, err := run(cctx, conc)
		if err != nil {
			t.Fatalf("batch=%v concurrent: %v", batch, err)
		}
		got, err := run(lctx, lock)
		if err != nil {
			t.Fatalf("batch=%v lockstep: %v", batch, err)
		}
		sameRows(t, got, want, "lockstep exchange")
		if cctx.Calls() != lctx.Calls() {
			t.Fatalf("batch=%v: %d lockstep calls, want %d", batch, lctx.Calls(), cctx.Calls())
		}
		csnap := EnsureLedger(conc).SnapshotAll(nil)
		lsnap := EnsureLedger(lock).SnapshotAll(nil)
		if len(csnap) != len(lsnap) {
			t.Fatalf("batch=%v: ledger sizes differ: %d vs %d", batch, len(lsnap), len(csnap))
		}
		for i := range csnap {
			if csnap[i] != lsnap[i] {
				t.Fatalf("batch=%v: node %d ledger differs: lockstep %+v vs concurrent %+v",
					batch, i, lsnap[i], csnap[i])
			}
		}
		if !lock.Runtime().Done() {
			t.Fatalf("batch=%v: lockstep exchange not marked done", batch)
		}
	}
}

// TestExchangeLockstepDeterministic: two monitored lockstep runs must deliver
// rows in the identical order and leave identical ledger trails — the
// property the concurrent exchange deliberately does not have and the
// evaluation matrix needs for byte-stable artifacts.
func TestExchangeLockstepDeterministic(t *testing.T) {
	for _, batch := range []bool{false, true} {
		runOnce := func() ([]int64, []ledger.Snapshot, int64) {
			_, lock := lockstepPair(157)
			ctx := NewCtx()
			ctx.BatchSize = 16
			run := Run
			if batch {
				run = RunBatch
			}
			out, err := run(ctx, lock)
			if err != nil {
				t.Fatal(err)
			}
			order := make([]int64, len(out))
			for i, r := range out {
				order[i] = r[0].AsInt()
			}
			return order, EnsureLedger(lock).SnapshotAll(nil), ctx.Calls()
		}
		o1, s1, c1 := runOnce()
		o2, s2, c2 := runOnce()
		if c1 != c2 || len(o1) != len(o2) || len(s1) != len(s2) {
			t.Fatalf("batch=%v: shape differs across runs", batch)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("batch=%v: delivery order differs at %d: %d vs %d", batch, i, o1[i], o2[i])
			}
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("batch=%v: ledger differs at node %d", batch, i)
			}
		}
	}
}

// TestExchangeLockstepRescan: a lockstep exchange must survive Open→drain→
// Open→drain (rescan) like any operator.
func TestExchangeLockstepRescan(t *testing.T) {
	_, lock := lockstepPair(50)
	ctx := NewCtx()
	first, err := Run(ctx, lock)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(ctx, lock)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, second, first, "lockstep rescan")
}
