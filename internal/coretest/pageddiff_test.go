package coretest

import (
	"path/filepath"
	"testing"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
)

// checkNoPins fails if a frame of the pool behind cat's paged tables (p1 and
// p2 share one) is still pinned: with every cursor closed, each Pool.Get
// must have met its Release.
func checkNoPins(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	if n := cat.PagedRelation("p2").Pool().Pinned(); n != 0 {
		t.Errorf("%d buffer-pool frame(s) still pinned after the run", n)
	}
}

// TestPagedEquivalence is the paged differential over the corpus: every
// entry must be observationally identical between in-memory and disk-backed
// storage in both regimes.
func TestPagedEquivalence(t *testing.T) {
	mem, paged := twinCatalogs(t)
	for _, e := range PagedCorpus() {
		t.Run(e.Label, func(t *testing.T) {
			CheckPagedEquivalence(t, e.Label, mem, paged, e.Build)
			checkNoPins(t, paged)
		})
	}
}

// TestPagedProgressInvariants runs the paper's guarantees directly over the
// disk-backed plans: the estimators never see the storage layer, only the
// ledger, so every invariant must hold unchanged.
func TestPagedProgressInvariants(t *testing.T) {
	_, paged := twinCatalogs(t)
	for _, e := range PagedCorpus() {
		t.Run(e.Label, func(t *testing.T) {
			CheckProgressInvariants(t, e.Label, e.Build(paged), 1)
			checkNoPins(t, paged)
		})
	}
}

// newWeightedTwin materializes p1/p2 as heap files with a nonzero per-page
// read cost — a row on a physically-read page credits 1+readCost GetNext
// units — behind a pool of the given size. Small pools make a cold scan
// pay the weight on every page.
func newWeightedTwin(t *testing.T, frames int, readCost int64) *catalog.Catalog {
	t.Helper()
	cat, err := corpusSideCatalog()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pool := pager.NewPool(frames)
	p1, p2 := twinRelations()
	for _, rel := range []*schema.Relation{p1, p2} {
		path := filepath.Join(dir, rel.Name+".heap")
		if err := pager.WriteRelation(path, rel); err != nil {
			t.Fatal(err)
		}
		hf, err := pager.OpenHeapFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hf.Close() })
		pr := pager.NewPagedRelation(hf, pool)
		pr.SetReadCost(readCost)
		cat.AddStore(pr)
	}
	return cat
}

// TestPagedWeightedInvariants checks that weighted crediting (physical
// reads cost extra GetNext units) still satisfies every estimator
// guarantee: FinalBounds widens UB by the worst-case page cost, so the
// hard-bounds and ratio-error invariants must hold at every instant of a
// cold, eviction-heavy run.
func TestPagedWeightedInvariants(t *testing.T) {
	cat := newWeightedTwin(t, 4, 3)
	for _, e := range PagedCorpus() {
		t.Run(e.Label, func(t *testing.T) {
			CheckProgressInvariants(t, e.Label, e.Build(cat), 1)
			checkNoPins(t, cat)
		})
	}
}

// TestPagedCloseBeforeDrainLeavesNoPins abandons every paged plan after its
// first row and demands that no frame stays pinned. (The other endings —
// drain, page-read error, cancel — are checked after every paged chaos run.)
func TestPagedCloseBeforeDrainLeavesNoPins(t *testing.T) {
	_, paged := twinCatalogs(t)
	for _, e := range PagedCorpus() {
		t.Run(e.Label, func(t *testing.T) {
			op := e.Build(paged)
			exec.EnsureLedger(op)
			ctx := exec.NewCtx()
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			if err := op.NextBatch(ctx, &exec.Batch{}, 1); err != nil {
				t.Fatal(err)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			checkNoPins(t, paged)
		})
	}
}
