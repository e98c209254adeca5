package exec

import (
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// runSampled runs op in bulk at pulls of batch rows with the sampling
// trigger at every, returning the Curr of each fire in firing order.
func runSampled(t *testing.T, op Operator, batch int, every int64) []int64 {
	t.Helper()
	ctx := NewCtx()
	ctx.BatchSize = batch
	var mu sync.Mutex
	var fires []int64
	ctx.SampleEvery(every, func(curr int64) {
		mu.Lock()
		fires = append(fires, curr)
		mu.Unlock()
	})
	if _, err := RunBatch(ctx, op); err != nil {
		t.Fatal(err)
	}
	return fires
}

// TestSampleEveryFiresOncePerDueInstant: a plain 1 000-row scan credits one
// pull at a time, so the trigger fires at the first credit past each
// multiple of every, once; a credit that crosses several multiples fires
// once for all of them.
func TestSampleEveryFiresOncePerDueInstant(t *testing.T) {
	for _, tc := range []struct {
		batch int
		every int64
		want  []int64
	}{
		{64, 100, []int64{128, 256, 320, 448, 512, 640, 704, 832, 960, 1000}},
		{100, 100, []int64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}},
		{1000, 100, []int64{1000}},
		{1000, 1001, nil},
	} {
		got := runSampled(t, NewScan(seqRel("r", 1000)), tc.batch, tc.every)
		if !slices.Equal(got, tc.want) {
			t.Errorf("batch %d every %d: fires at %v, want %v", tc.batch, tc.every, got, tc.want)
		}
	}
}

// TestSampleEveryParallelScan: worker credits of a concurrent ParallelScan
// race for each due instant, and the compare-and-swap hands it to one of
// them: no two fires fall in the same period. Run it under -race.
func TestSampleEveryParallelScan(t *testing.T) {
	const n, every = 50_000, 100
	fires := runSampled(t, NewParallelScan(seqRel("r", n), 4), 64, every)
	if len(fires) == 0 || len(fires) > n/every {
		t.Fatalf("%d fires over %d calls at every %d", len(fires), n, every)
	}
	slices.Sort(fires)
	for i := 1; i < len(fires); i++ {
		if fires[i]/every <= fires[i-1]/every {
			t.Fatalf("fires at %d and %d share a period of %d", fires[i-1], fires[i], every)
		}
	}
}

// TestSelectiveScanCreditsAPullAtATime: a scan whose predicate passes only
// its last row reads the whole table in one pull. It must credit the rows
// it rejects as it reads them, a pull's worth at a time, so the trigger at
// every = 1 sees Curr move by at most want between fires — in memory and
// through a paged store's cursor with weighted read units.
func TestSelectiveScanCreditsAPullAtATime(t *testing.T) {
	const n, want = 1000, 64
	rel := seqRel("r", n)
	path := filepath.Join(t.TempDir(), "r.heap")
	if err := pager.WriteRelation(path, rel); err != nil {
		t.Fatal(err)
	}
	hf, err := pager.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	paged := pager.NewPagedRelation(hf, pager.NewPool(2))
	paged.SetReadCost(2)
	for name, st := range map[string]schema.Store{"memory": rel, "paged": paged} {
		s := NewStoreScan(st, nil)
		s.Pred = expr.Compare(expr.EQ, col(s, "r", "a"), expr.Literal(sqlval.Int(n-1)))
		prev := int64(0)
		for _, curr := range runSampled(t, s, want, 1) {
			if curr-prev > want {
				t.Fatalf("%s: Curr moved %d -> %d in one credit, more than a %d-row pull", name, prev, curr, want)
			}
			prev = curr
		}
		if prev < n {
			t.Fatalf("%s: last fire at %d, want the whole scan (>= %d)", name, prev, n)
		}
	}
}
