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
		entry := entry
		t.Run(entry.Label, func(t *testing.T) {
			CheckBatchRowEquivalence(t, entry.Label, entry.Build)
		})
	}
}

// TestWantOneIsGetNext holds every serial corpus plan to the pull contract:
// under a hook-free RunBatch at one-row batches, every root pull hands out
// exactly one row until EOF — a join's fan-out included — and the ledger and
// estimates after each pull are a hooked run's at the same Curr.
func TestWantOneIsGetNext(t *testing.T) {
	for _, entry := range Corpus() {
		if !exec.OnOneGoroutine(entry.Build()) {
			continue
		}
		entry := entry
		t.Run(entry.Label, func(t *testing.T) {
			one := runMarked(t, entry.Label+": want=1", entry.Build(), 1, false)
			ref := runMarked(t, entry.Label+": row", entry.Build(), 0, true)
			// Only a root pull moves the root's delivered count (node 0), and
			// each is marked: a pull of several rows shows as a larger step.
			var delivered int64
			for k, m := range one.marks {
				if d := m.nodes[0].Delivered; d != delivered {
					if d != delivered+1 {
						t.Fatalf("%s: mark %d (Curr=%d): a root pull handed out %d rows", entry.Label, k, m.curr, d-delivered)
					}
					delivered = d
				}
			}
			if delivered != int64(len(one.rows)) {
				t.Fatalf("%s: root delivered %d rows in one-row steps, run returned %d", entry.Label, delivered, len(one.rows))
			}
			if err := compareRuns(entry.Label, "want=1", "row", one, ref); err != nil {
				t.Fatal(err)
			}
		})
	}
}
