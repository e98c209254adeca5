package exec

import (
	"path/filepath"
	"slices"
	"testing"
	"time"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/ledger"
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
	var fires []int64
	ctx.SampleEvery(every, func(curr int64) { fires = append(fires, curr) })
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

// TestSampleIntervalClockRule: the wall-clock rule with a 24 h interval never
// fires — though it replaced a call-count rule at every = 1 — and with a 1 ns
// interval fires once at every credit, at the instants the call-count rule
// at every = 1 fires at. Either way the run ends with the rows, calls and
// final ledger of a run with no trigger. The plan is a hash join whose probe
// rows fan out, pulled 64 rows at a time.
func TestSampleIntervalClockRule(t *testing.T) {
	run := func(install func(*Ctx, func(int64))) ([]schema.Row, int64, []ledger.Snapshot, []int64) {
		t.Helper()
		op := NewHashJoin(NewScan(seqRel("s", 50)), NewScan(seqRel("r", 1000)),
			[]expr.Expr{expr.Col{Index: 1}}, []expr.Expr{expr.Col{Index: 1}}, InnerJoin)
		led := EnsureLedger(op)
		ctx := NewCtx()
		ctx.BatchSize = 64
		var fires []int64
		if install != nil {
			install(ctx, func(curr int64) { fires = append(fires, curr) })
		}
		rows, err := RunBatch(ctx, op)
		if err != nil {
			t.Fatal(err)
		}
		return rows, ctx.Calls(), led.SnapshotAll(nil), fires
	}
	rows, calls, final, _ := run(nil)
	_, _, _, everyCredit := run(func(ctx *Ctx, fn func(int64)) { ctx.SampleEvery(1, fn) })
	if len(everyCredit) < 2 {
		t.Fatalf("every = 1 fired at %v: want a run of several credits", everyCredit)
	}
	for _, tc := range []struct {
		label string
		d     time.Duration
		want  []int64
	}{
		{"24h", 24 * time.Hour, nil},
		{"1ns", time.Nanosecond, everyCredit},
	} {
		r, c, f, fires := run(func(ctx *Ctx, fn func(int64)) {
			ctx.SampleEvery(1, fn)
			ctx.SampleInterval(tc.d, fn)
		})
		if !slices.Equal(fires, tc.want) {
			t.Errorf("%s: fires at %v, want %v", tc.label, fires, tc.want)
		}
		sameRows(t, r, rows, tc.label)
		if c != calls || !slices.Equal(f, final) {
			t.Errorf("%s: ended at %d calls with ledger %+v, the unmonitored run at %d with %+v", tc.label, c, f, calls, final)
		}
	}
}
