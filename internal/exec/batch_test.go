package exec

import (
	"errors"
	"fmt"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// batchPlans is the pair-builder corpus: each entry constructs a fresh
// operator tree so the row and batch engines never share state.
func batchPlans() []struct {
	name  string
	build func() Operator
} {
	r := relOf("r", []string{"a", "x"}, [][]int64{
		{1, 10}, {2, 20}, {2, 21}, {3, 30}, {4, 40}, {5, 50}, {5, 51}, {7, 70},
	})
	s := relOf("s", []string{"b", "y"}, [][]int64{
		{2, 200}, {2, 201}, {3, 300}, {4, 400}, {9, 900},
	})
	big := relOf("big", []string{"k", "v"}, nil)
	for i := int64(0); i < 500; i++ {
		big.Append(schema.Row{sqlval.Int(i % 37), sqlval.Int(i)})
	}
	return []struct {
		name  string
		build func() Operator
	}{
		{name: "scan", build: func() Operator { return NewScan(big) }},
		{name: "scan_pred", build: func() Operator {
			sc := NewScan(big)
			sc.Pred = expr.Compare(expr.LT, col(sc, "big", "k"), intLit(9))
			return sc
		}},
		{name: "filter_project", build: func() Operator {
			sc := NewScan(big)
			f := NewFilter(sc, expr.Compare(expr.GE, col(sc, "big", "v"), intLit(100)))
			return NewProject(f,
				[]expr.Expr{expr.NewCol(f.Schema(), "big", "v")},
				[]string{"v"}, []sqlval.Kind{sqlval.KindInt})
		}},
		{name: "hash_join", build: func() Operator {
			scanS := NewScan(s)
			scanR := NewScan(r)
			return NewHashJoin(scanS, scanR,
				[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")},
				InnerJoin)
		}},
		{name: "hash_join_leftouter", build: func() Operator {
			scanS := NewScan(s)
			scanR := NewScan(r)
			return NewHashJoin(scanS, scanR,
				[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")},
				LeftOuterJoin)
		}},
		{name: "inl_join", build: func() Operator {
			scanR := NewScan(r)
			return NewINLJoin(scanR, s, 0, col(scanR, "r", "a"), InnerJoin)
		}},
		{name: "sort_top", build: func() Operator {
			sc := NewScan(big)
			srt := NewSort(sc, []SortKey{{Expr: col(sc, "big", "v"), Desc: true}})
			return NewTop(srt, 25)
		}},
		{name: "distinct", build: func() Operator {
			sc := NewScan(big)
			p := NewProject(sc,
				[]expr.Expr{expr.NewCol(sc.Schema(), "big", "k")},
				[]string{"k"}, []sqlval.Kind{sqlval.KindInt})
			return NewDistinct(p)
		}},
		{name: "hash_agg", build: func() Operator {
			sc := NewScan(big)
			return NewHashAgg(sc,
				[]expr.Expr{col(sc, "big", "k")},
				[]string{"k"}, []sqlval.Kind{sqlval.KindInt},
				[]expr.Agg{{Kind: expr.AggCountStar, Name: "n"}})
		}},
		{name: "scalar_agg", build: func() Operator {
			sc := NewScan(big)
			return NewStreamAgg(sc, nil, nil, nil,
				[]expr.Agg{{Kind: expr.AggSum, Arg: col(sc, "big", "v"), Name: "s"}})
		}},
		{name: "merge_join", build: func() Operator {
			scanR := NewScan(r)
			scanS := NewScan(s)
			sortR := NewSort(scanR, []SortKey{{Expr: col(scanR, "r", "a")}})
			sortS := NewSort(scanS, []SortKey{{Expr: col(scanS, "s", "b")}})
			return NewMergeJoin(sortR, sortS,
				[]expr.Expr{expr.NewCol(sortR.Schema(), "r", "a")},
				[]expr.Expr{expr.NewCol(sortS.Schema(), "s", "b")})
		}},
		{name: "nl_join", build: func() Operator {
			scanR := NewScan(r)
			scanS := NewScan(s)
			return NewNLJoin(scanR, scanS,
				expr.Compare(expr.EQ, expr.NewCol(scanR.Schema().Concat(scanS.Schema()), "r", "a"),
					expr.NewCol(scanR.Schema().Concat(scanS.Schema()), "s", "b")))
		}},
	}
}

func finalSnapshots(op Operator) []ledger.Snapshot {
	var out []ledger.Snapshot
	Walk(op, func(o Operator) { out = append(out, NodeSnapshot(o)) })
	return out
}

// runExact is RunBatch in the exact regime: a no-op hook makes every pull
// one GetNext. It is the reference the bulk regime is held to.
func runExact(ctx *Ctx, op Operator) ([]schema.Row, error) {
	ctx.OnGetNext = func(int64) {}
	return RunBatch(ctx, op)
}

// TestRunBatchMatchesRun proves the headline equivalence at the exec level:
// bulk pulls give the exact regime's result sets, total GetNext calls and
// per-node final counters — across every plan shape and several batch
// sizes.
func TestRunBatchMatchesRun(t *testing.T) {
	for _, tc := range batchPlans() {
		for _, bs := range []int{0, 1, 3, 64} {
			t.Run(fmt.Sprintf("%s/bs=%d", tc.name, bs), func(t *testing.T) {
				rowOp := tc.build()
				rowCtx := NewCtx()
				wantRows, err := runExact(rowCtx, rowOp)
				if err != nil {
					t.Fatal(err)
				}
				batchOp := tc.build()
				batchCtx := NewCtx()
				batchCtx.BatchSize = bs
				gotRows, err := RunBatch(batchCtx, batchOp)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotRows) != len(wantRows) {
					t.Fatalf("rows: got %d, want %d", len(gotRows), len(wantRows))
				}
				for i := range gotRows {
					if !rowsEqual(gotRows[i], wantRows[i]) {
						t.Fatalf("row %d: got %v, want %v", i, gotRows[i], wantRows[i])
					}
				}
				if gc, wc := batchCtx.Calls(), rowCtx.Calls(); gc != wc {
					t.Errorf("Calls: batch %d, row %d", gc, wc)
				}
				gs, ws := finalSnapshots(batchOp), finalSnapshots(rowOp)
				if len(gs) != len(ws) {
					t.Fatalf("snapshot count: %d vs %d", len(gs), len(ws))
				}
				for i := range gs {
					if gs[i] != ws[i] {
						t.Errorf("node %d final snapshot: batch %+v, row %+v", i, gs[i], ws[i])
					}
				}
			})
		}
	}
}

// TestBatchFaultLandsAtExactCall proves that an injector alone puts a run in
// the exact regime: a fault scheduled for call N aborts with exactly N calls
// counted — mid-batch, not at a chunk boundary — and every node's count is
// the iterator model's at call N.
func TestBatchFaultLandsAtExactCall(t *testing.T) {
	boom := errors.New("boom")
	// filter_project over 500 rows: the filter rejects v < 100, so the
	// first 100 calls are the scan's alone; after that each row is three
	// calls in iterator order — scan, filter, project.
	exact := func(at int64) [3]int64 {
		if at <= 100 {
			return [3]int64{at, 0, 0}
		}
		m := at - 100
		n, r := m/3, m%3
		return [3]int64{100 + n + min(r, 1), n + r/2, n}
	}
	for _, at := range []int64{1, 7, 100, 333, 1000} {
		op := batchPlans()[2].build()
		ctx := NewCtx()
		ctx.Inject = func(calls int64) error {
			if calls == at {
				return boom
			}
			return nil
		}
		if _, err := RunBatch(ctx, op); !errors.Is(err, boom) {
			t.Fatalf("at=%d: err = %v, want boom", at, err)
		}
		if got := ctx.Calls(); got != at {
			t.Errorf("at=%d: calls = %d, want exactly %d", at, got, at)
		}
		// Pre-order: project, filter, scan.
		snaps := finalSnapshots(op)
		got := [3]int64{snaps[2].Returned, snaps[1].Returned, snaps[0].Returned}
		if want := exact(at); got != want {
			t.Errorf("at=%d: scan/filter/project calls %v, want %v", at, got, want)
		}
	}
}

// TestBatchCancelStopsMidBatch proves cancellation through OnGetNext lands at
// exactly the call that asked for it, mid-batch.
func TestBatchCancelStopsMidBatch(t *testing.T) {
	const at = 42
	op := batchPlans()[0].build() // plain 500-row scan
	ctx := NewCtx()
	ctx.OnGetNext = func(calls int64) {
		if calls == at {
			ctx.Cancel()
		}
	}
	if _, err := RunBatch(ctx, op); err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := ctx.Calls(); got != at {
		t.Errorf("calls at cancel = %d, want %d", got, at)
	}
}

// TestNativeBatch pins which plan shapes report full vectorization.
func TestNativeBatch(t *testing.T) {
	plans := batchPlans()
	want := map[string]bool{
		"scan": true, "scan_pred": true, "filter_project": true,
		"hash_join": true, "hash_join_leftouter": true, "inl_join": true,
		"sort_top": false, "distinct": true, "hash_agg": true,
		"scalar_agg": true, "merge_join": false, "nl_join": false,
	}
	for _, tc := range plans {
		if got := NativeBatch(tc.build()); got != want[tc.name] {
			t.Errorf("NativeBatch(%s) = %v, want %v", tc.name, got, want[tc.name])
		}
	}
}
