package plan

import (
	"path/filepath"
	"testing"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	dept := schema.NewRelation("dept", schema.New(
		schema.Column{Name: "dkey", Type: sqlval.KindInt},
		schema.Column{Name: "dname", Type: sqlval.KindString},
	))
	for i := int64(0); i < 5; i++ {
		dept.Append(schema.Row{sqlval.Int(i), sqlval.String(string(rune('A' + i)))})
	}
	emp := schema.NewRelation("emp", schema.New(
		schema.Column{Name: "ekey", Type: sqlval.KindInt},
		schema.Column{Name: "edept", Type: sqlval.KindInt},
		schema.Column{Name: "sal", Type: sqlval.KindInt},
	))
	for i := int64(0); i < 40; i++ {
		emp.Append(schema.Row{sqlval.Int(i), sqlval.Int(i % 5), sqlval.Int(100 * (i % 7))})
	}
	cat.AddRelation(dept)
	cat.AddRelation(emp)
	cat.DeclareForeignKey(catalog.ForeignKey{
		ChildTable: "emp", ChildColumn: "edept",
		ParentTable: "dept", ParentColumn: "dkey",
	})
	return cat
}

func run(t *testing.T, n Node) []schema.Row {
	t.Helper()
	rows, err := exec.RunBatch(exec.NewCtx(), n.Op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestBuilderScanAndFilter(t *testing.T) {
	b := NewBuilder(testCatalog())
	rows := run(t, b.Scan("emp"))
	if len(rows) != 40 {
		t.Fatalf("scan rows = %d", len(rows))
	}
	filtered := run(t, b.ScanFiltered("emp", 0.2, func(sch *schema.Schema) expr.Expr {
		return expr.Compare(expr.EQ, expr.NewCol(sch, "", "edept"), expr.Literal(sqlval.Int(2)))
	}))
	if len(filtered) != 8 {
		t.Fatalf("filtered rows = %d, want 8", len(filtered))
	}
	explicit := run(t, b.Scan("emp").Filter(0.5, func(sch *schema.Schema) expr.Expr {
		return expr.Compare(expr.GE, expr.NewCol(sch, "", "sal"), expr.Literal(sqlval.Int(300)))
	}))
	if len(explicit) < 1 || len(explicit) >= 40 {
		t.Fatalf("explicit filter rows = %d", len(explicit))
	}
}

func TestBuilderHashJoinLinearDetection(t *testing.T) {
	b := NewBuilder(testCatalog())
	j := b.Scan("emp").HashJoin(b.Scan("dept"), "edept", "dkey", exec.InnerJoin)
	hj := j.Op.(*exec.HashJoin)
	if !hj.Linear {
		t.Error("FK join should be detected linear")
	}
	rows := run(t, j)
	if len(rows) != 40 {
		t.Fatalf("join rows = %d, want 40", len(rows))
	}
	// Join on non-key columns: not linear.
	j2 := b.Scan("emp").HashJoin(b.Scan("emp"), "sal", "sal", exec.InnerJoin)
	if j2.Op.(*exec.HashJoin).Linear {
		t.Error("non-key join should not be linear")
	}
}

func TestBuilderINLJoin(t *testing.T) {
	b := NewBuilder(testCatalog())
	j := b.Scan("emp").INLJoin("dept", "dkey", "edept", exec.InnerJoin)
	if !j.Op.(*exec.INLJoin).Linear {
		t.Error("INL FK join should be linear")
	}
	rows := run(t, j)
	if len(rows) != 40 {
		t.Fatalf("INL join rows = %d", len(rows))
	}
	semi := run(t, b.Scan("dept").INLJoin("emp", "edept", "dkey", exec.SemiJoin))
	if len(semi) != 5 {
		t.Fatalf("semi rows = %d, want 5", len(semi))
	}
}

func TestBuilderMergeJoin(t *testing.T) {
	b := NewBuilder(testCatalog())
	left := b.Scan("emp").Sort("edept")
	right := b.Scan("dept").Sort("dkey")
	rows := run(t, left.MergeJoin(right, "edept", "dkey"))
	if len(rows) != 40 {
		t.Fatalf("merge join rows = %d", len(rows))
	}
}

func TestBuilderRangeScan(t *testing.T) {
	b := NewBuilder(testCatalog())
	lo, hi := sqlval.Int(10), sqlval.Int(19)
	n := b.RangeScan("emp", "ekey", &lo, &hi, true, true)
	rows := run(t, n)
	if len(rows) != 10 {
		t.Fatalf("range rows = %d", len(rows))
	}
	rs := n.Op.(*exec.RangeScan)
	bnds := rs.FinalBounds(nil)
	if bnds.LB > 10 || bnds.UB < 10 {
		t.Errorf("histogram bounds [%d,%d] do not bracket 10", bnds.LB, bnds.UB)
	}
}

func TestBuilderAggregations(t *testing.T) {
	b := NewBuilder(testCatalog())
	grouped := run(t, b.Scan("emp").HashAgg(5, []string{"edept"},
		AggSpec{Kind: expr.AggCountStar, As: "cnt"},
		AggSpec{Kind: expr.AggSum, Col: "sal", As: "total"}))
	if len(grouped) != 5 {
		t.Fatalf("groups = %d", len(grouped))
	}
	for _, g := range grouped {
		if g[1].AsInt() != 8 {
			t.Errorf("group %v count = %v, want 8", g[0], g[1])
		}
	}
	streamed := run(t, b.Scan("emp").Sort("edept").StreamAgg(5, []string{"edept"},
		AggSpec{Kind: expr.AggCountStar, As: "cnt"}))
	if len(streamed) != 5 {
		t.Fatalf("stream groups = %d", len(streamed))
	}
	scalar := run(t, b.Scan("emp").ScalarAgg(
		AggSpec{Kind: expr.AggCountStar, As: "cnt"},
		AggSpec{Kind: expr.AggMax, Col: "sal", As: "maxsal"}))
	if len(scalar) != 1 || scalar[0][0].AsInt() != 40 {
		t.Fatalf("scalar agg = %v", scalar)
	}
}

func TestBuilderSortTopProject(t *testing.T) {
	b := NewBuilder(testCatalog())
	top := run(t, b.Scan("emp").SortKeys(exec.SortKey{
		Expr: expr.NewCol(b.Scan("emp").Schema(), "", "sal"), Desc: true,
	}).Top(3))
	if len(top) != 3 {
		t.Fatalf("top rows = %d", len(top))
	}
	if top[0][2].AsInt() < top[2][2].AsInt() {
		t.Error("descending sort violated")
	}
	proj := b.Scan("emp").Project(
		[]expr.Expr{expr.NewCol(b.Scan("emp").Schema(), "", "ekey")},
		[]string{"k"}, []sqlval.Kind{sqlval.KindInt})
	rows := run(t, proj)
	if len(rows) != 40 || len(rows[0]) != 1 {
		t.Fatalf("projection shape = %d x %d", len(rows), len(rows[0]))
	}
}

func TestBuilderEstimatesSet(t *testing.T) {
	b := NewBuilder(testCatalog())
	n := b.Scan("emp")
	if n.Op.EstimatedCard() != 40 {
		t.Errorf("scan estimate = %d", n.Op.EstimatedCard())
	}
	agg := n.HashAgg(5, []string{"edept"}, AggSpec{Kind: expr.AggCountStar, As: "c"})
	if agg.Op.EstimatedCard() != 5 {
		t.Errorf("agg estimate = %d", agg.Op.EstimatedCard())
	}
}

func TestBuilderPanicsOnUnknownTable(t *testing.T) {
	b := NewBuilder(testCatalog())
	defer func() {
		if recover() == nil {
			t.Error("unknown table should panic")
		}
	}()
	b.Scan("ghost")
}

func TestLpBoundOnManyToManyHashJoin(t *testing.T) {
	b := NewBuilder(testCatalog())
	// emp self-join on edept: 5 keys of degree 8 each, exact output 5*64=320,
	// while the classic non-linear UB is |emp|*|emp| = 1600.
	n := b.Scan("emp").HashJoin(b.Scan("emp"), "edept", "edept", exec.InnerJoin)
	pb, ok := n.Op.(exec.PessimisticBounder)
	if !ok {
		t.Fatal("hash join does not expose PessimisticBounder")
	}
	if got := pb.PessimisticUB(); got != 320 {
		t.Fatalf("PessimisticUB = %d, want 320 (l2*l2)", got)
	}
	snap := core.NewBoundsEvaluator(n.Op).Compute()
	if snap.UBTight >= snap.UB {
		t.Fatalf("UBTight %d not tighter than UB %d", snap.UBTight, snap.UB)
	}
	preTight := snap.UBTight
	ctx := exec.NewCtx()
	rows, err := exec.RunBatch(ctx, n.Op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 320 {
		t.Fatalf("join output = %d, want 320", len(rows))
	}
	if total := ctx.Calls(); total > preTight {
		t.Fatalf("tight bound unsound: total %d > pre-run UBTight %d", total, preTight)
	}
}

func TestLpBoundSkipsNonBaseScanSides(t *testing.T) {
	b := NewBuilder(testCatalog())
	inner := b.Scan("emp").HashJoin(b.Scan("dept"), "edept", "dkey", exec.InnerJoin)
	// The upper join's probe side is itself a join: rows may be duplicated,
	// so the degree-norm bound would be unsound and must not be attached.
	outer := inner.HashJoin(b.Scan("dept"), "dkey", "dkey", exec.InnerJoin)
	if got := outer.Op.(exec.PessimisticBounder).PessimisticUB(); got != -1 {
		t.Fatalf("join-above-join PessimisticUB = %d, want -1", got)
	}
}

func TestLpBoundOnINLJoinUniqueInner(t *testing.T) {
	b := NewBuilder(testCatalog())
	// dept.dkey is unique (FK parent): the inner degree sequence is uniform
	// even without consulting the histogram, and the bound collapses to at
	// most |emp| non-NULL keys.
	n := b.Scan("emp").INLJoin("dept", "dkey", "edept", exec.InnerJoin)
	got := n.Op.(exec.PessimisticBounder).PessimisticUB()
	if got < 1 || got > 40 {
		t.Fatalf("INL unique-inner PessimisticUB = %d, want in [1,40]", got)
	}
	rows := run(t, n)
	if int64(len(rows)) > got {
		t.Fatalf("unsound: %d rows > bound %d", len(rows), got)
	}
}

// TestLpBoundOnNarrowedPagedScan: a scan that decodes only the join column
// has it at position 0 of its schema, but the column's histogram is still
// found at its position in the stored table — the bound is the full-width
// plan's 320, not the 40 that ekey's (unique) degrees would give.
func TestLpBoundOnNarrowedPagedScan(t *testing.T) {
	mem := testCatalog()
	path := filepath.Join(t.TempDir(), "emp.heap")
	if err := pager.WriteRelation(path, mem.MustRelation("emp")); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if _, err := cat.AttachHeapFile(path, pager.NewPool(4)); err != nil {
		t.Fatal(err)
	}
	cat.SetStats("emp", mem.Stats("emp"))
	b := NewBuilder(cat)
	keep := Columns{"edept": true}
	n := b.Scan("emp", keep).HashJoin(b.Scan("emp", keep), "edept", "edept", exec.InnerJoin)
	if got := n.Schema().String(); got != "(emp.edept BIGINT, emp.edept BIGINT)" {
		t.Fatalf("join schema = %s, want the two narrowed scans' one column each", got)
	}
	if got := n.Op.(exec.PessimisticBounder).PessimisticUB(); got != 320 {
		t.Fatalf("PessimisticUB = %d, want 320 (l2*l2 of edept's degrees)", got)
	}
	if rows := run(t, n); len(rows) != 320 {
		t.Fatalf("join output = %d, want 320", len(rows))
	}
}
