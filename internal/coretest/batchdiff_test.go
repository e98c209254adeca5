package coretest

import "testing"

// TestBatchRowEquivalenceCorpus proves the batch engine's ledger-equivalence
// claim over the full invariant corpus, at several batch sizes each.
func TestBatchRowEquivalenceCorpus(t *testing.T) {
	for _, entry := range Corpus() {
		if entry.StopsEarly {
			continue // no two runs agree on rows or counts, in either engine
		}
		entry := entry
		t.Run(entry.Label, func(t *testing.T) {
			CheckBatchRowEquivalence(t, entry.Label, entry.Build, entry.Parallel)
		})
	}
}
