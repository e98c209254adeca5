package coretest

import (
	"testing"

	"sqlprogress/internal/exec"
)

// TestBatchRowEquivalenceCorpus proves the batch engine's ledger-equivalence
// claim over the full invariant corpus, at several batch sizes each.
func TestBatchRowEquivalenceCorpus(t *testing.T) {
	for _, entry := range Corpus() {
		if entry.StopsEarly {
			continue // no two runs agree on rows or counts, in either engine
		}
		t.Run(entry.Label, func(t *testing.T) {
			CheckBatchRowEquivalence(t, entry.Label, entry.Build)
		})
	}
}

// TestWantOneIsGetNext holds every corpus plan to the pull contract, a
// parallel one in lockstep: driven hook-free by root pulls of want == 1 at
// one-row batches, every pull hands out at most one row — a join's fan-out
// included — the root's delivered count is the row count, and the run ends
// with a hooked run's rows, calls and per-node ledger.
func TestWantOneIsGetNext(t *testing.T) {
	for _, entry := range Corpus() {
		t.Run(entry.Label, func(t *testing.T) {
			root := entry.Build()
			exec.Lockstep(root)
			led := exec.EnsureLedger(root)
			ctx := exec.NewCtx()
			ctx.BatchSize = 1
			if err := root.Open(ctx); err != nil {
				t.Fatal(err)
			}
			one := planRun{serial: true}
			var b exec.Batch
			for {
				if err := root.NextBatch(ctx, &b, 1); err != nil {
					t.Fatal(err)
				}
				if b.Len() == 0 {
					break
				}
				if b.Len() > 1 {
					t.Fatalf("%s: pull %d handed out %d rows", entry.Label, len(one.rows), b.Len())
				}
				one.rows = append(one.rows, b.Rows[0])
			}
			if err := root.Close(); err != nil {
				t.Fatal(err)
			}
			one.calls, one.final = ctx.Calls(), led.SnapshotAll(nil)
			if d := one.final[0].Delivered; d != int64(len(one.rows)) {
				t.Fatalf("%s: root delivered %d rows, its pulls handed out %d", entry.Label, d, len(one.rows))
			}
			ref := entry.Build()
			exec.Lockstep(ref)
			if err := compareRuns(entry.Label, "want=1", "row", one, mustRun(t, entry.Label+": row", ref, 1, true)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
