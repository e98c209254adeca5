package coretest

import (
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
)

// foldAllocBudget is what one Tracker.Fold may allocate: the State and its
// Drivers and Pipelines slices, each made at its final size. Every sample a
// monitor or a session takes pays for one Fold, and the credit-read check
// folds tens of thousands over the corpus.
const foldAllocBudget = 3

// TestFoldAllocBudget holds Tracker.Fold of a finished run's ledger read to
// foldAllocBudget on every corpus plan.
func TestFoldAllocBudget(t *testing.T) {
	for _, e := range Corpus() {
		t.Run(e.Label, func(t *testing.T) {
			op := e.Build()
			tr := core.NewTracker(op)
			if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
				t.Fatal(err)
			}
			read := exec.EnsureLedger(op).SnapshotAll(nil)
			got := testing.AllocsPerRun(100, func() { tr.Fold(read) })
			if got > foldAllocBudget {
				t.Errorf("Tracker.Fold: %.0f allocs/op, budget %d", got, foldAllocBudget)
			}
			t.Logf("%.0f allocs/op", got)
		})
	}
}
