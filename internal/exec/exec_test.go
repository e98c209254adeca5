package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/index"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// --- fixtures ---------------------------------------------------------------

func relOf(name string, colNames []string, rows [][]int64) *schema.Relation {
	cols := make([]schema.Column, len(colNames))
	for i, n := range colNames {
		cols[i] = schema.Column{Name: n, Type: sqlval.KindInt}
	}
	rel := schema.NewRelation(name, schema.New(cols...))
	for _, r := range rows {
		row := make(schema.Row, len(r))
		for i, v := range r {
			row[i] = sqlval.Int(v)
		}
		rel.Append(row)
	}
	return rel
}

func col(op Operator, table, name string) expr.Col {
	return expr.NewCol(op.Schema(), table, name)
}

func intLit(v int64) expr.Lit { return expr.Literal(sqlval.Int(v)) }

// rowsToStrings canonicalizes result sets for order-insensitive comparison.
func rowsToStrings(rows []schema.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// sameValue reports whether a and b have the same kind and content, which
// String renders exactly. reflect.DeepEqual would compare where a string's
// bytes live, not what they hold.
func sameValue(a, b sqlval.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String()
}

// sameRow reports whether a and b hold the same values, by sameValue.
func sameRow(a, b schema.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameRows(t *testing.T, got, want []schema.Row, label string) {
	t.Helper()
	g, w := rowsToStrings(got), rowsToStrings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows, want %d\ngot:  %v\nwant: %v", label, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d: got %s, want %s", label, i, g[i], w[i])
		}
	}
}

// --- leaves -----------------------------------------------------------------

func TestScanCountsEveryRow(t *testing.T) {
	rel := relOf("r", []string{"a"}, [][]int64{{1}, {2}, {3}})
	s := NewScan(rel)
	ctx := NewCtx()
	rows, err := RunBatch(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rt := NodeSnapshot(s); rt.Returned != 3 || !rt.Done {
		t.Errorf("runtime = %+v", rt)
	}
	if ctx.Calls() != 3 {
		t.Errorf("ctx.Calls() = %d, want 3", ctx.Calls())
	}
	b := s.FinalBounds(nil)
	if b.LB != 3 || b.UB != 3 {
		t.Errorf("bounds = %+v", b)
	}
}

func TestScanWithOrder(t *testing.T) {
	rel := relOf("r", []string{"a"}, [][]int64{{10}, {20}, {30}})
	s := NewScanWithOrder(rel, []int32{2, 0, 1})
	rows, err := RunBatch(NewCtx(), s)
	if err != nil {
		t.Fatal(err)
	}
	got := []int64{rows[0][0].AsInt(), rows[1][0].AsInt(), rows[2][0].AsInt()}
	if got[0] != 30 || got[1] != 10 || got[2] != 20 {
		t.Errorf("order scan = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched order length should panic")
		}
	}()
	NewScanWithOrder(rel, []int32{0})
}

func TestScanRescan(t *testing.T) {
	rel := relOf("r", []string{"a"}, [][]int64{{1}, {2}})
	s := NewScan(rel)
	ctx := NewCtx()
	if _, err := RunBatch(ctx, s); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBatch(ctx, s); err != nil {
		t.Fatal(err)
	}
	rt := NodeSnapshot(s)
	if rt.Returned != 4 {
		t.Errorf("cumulative Returned = %d, want 4", rt.Returned)
	}
	if rt.Rescans != 1 {
		t.Errorf("Rescans = %d, want 1", rt.Rescans)
	}
}

func TestRangeScan(t *testing.T) {
	rel := relOf("r", []string{"a"}, [][]int64{{5}, {1}, {3}, {4}, {2}})
	ix := index.BuildOrdered("ix", rel, 0)
	lo, hi := sqlval.Int(2), sqlval.Int(4)
	rs := NewRangeScan(ix, &lo, &hi, true, true)
	rows, err := RunBatch(NewCtx(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("range rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].AsInt() > rows[i][0].AsInt() {
			t.Error("range scan should be ordered")
		}
	}
	// Default bounds: 0..relation size; static bounds override.
	if b := rs.FinalBounds(nil); b.LB != 0 || b.UB != 5 {
		t.Errorf("default bounds = %+v", b)
	}
	rs.SetStaticBounds(CardBounds{LB: 2, UB: 4})
	if b := rs.FinalBounds(nil); b.LB != 2 || b.UB != 4 {
		t.Errorf("static bounds = %+v", b)
	}
}

func TestValues(t *testing.T) {
	sch := schema.New(schema.Column{Name: "x", Type: sqlval.KindInt})
	v := NewValues(sch, []schema.Row{{sqlval.Int(1)}, {sqlval.Int(2)}})
	rows, err := RunBatch(NewCtx(), v)
	if err != nil || len(rows) != 2 {
		t.Fatalf("values run = %v, %v", rows, err)
	}
	if b := v.FinalBounds(nil); b.LB != 2 || b.UB != 2 {
		t.Errorf("bounds = %+v", b)
	}
}

// --- filter / project / top --------------------------------------------------

func TestFilter(t *testing.T) {
	rel := relOf("r", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}})
	sc := NewScan(rel)
	f := NewFilter(sc, expr.Compare(expr.GT, col(sc, "r", "a"), intLit(3)))
	ctx := NewCtx()
	rows, err := RunBatch(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("filter rows = %d", len(rows))
	}
	// GetNext accounting: 5 (scan) + 2 (filter) = 7.
	if ctx.Calls() != 7 {
		t.Errorf("ctx.Calls() = %d, want 7", ctx.Calls())
	}
	if b := f.FinalBounds([]CardBounds{{5, 5}}); b.LB != 0 || b.UB != 5 {
		t.Errorf("filter bounds = %+v", b)
	}
}

func TestProject(t *testing.T) {
	rel := relOf("r", []string{"a"}, [][]int64{{3}, {4}})
	sc := NewScan(rel)
	p := NewProject(sc,
		[]expr.Expr{expr.NewArith(expr.MulOp, col(sc, "r", "a"), intLit(10))},
		[]string{"a10"}, []sqlval.Kind{sqlval.KindInt})
	rows, err := RunBatch(NewCtx(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].AsInt() != 30 || rows[1][0].AsInt() != 40 {
		t.Errorf("projected = %v", rows)
	}
	if p.Schema().Columns[0].Name != "a10" {
		t.Errorf("schema = %v", p.Schema())
	}
	if b := p.FinalBounds([]CardBounds{{2, 2}}); b.LB != 2 || b.UB != 2 {
		t.Errorf("project bounds = %+v", b)
	}
}

func TestTop(t *testing.T) {
	rel := relOf("r", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}})
	top := NewTop(NewScan(rel), 2)
	ctx := NewCtx()
	rows, err := RunBatch(ctx, top)
	if err != nil || len(rows) != 2 {
		t.Fatalf("top rows = %v, %v", rows, err)
	}
	// Scan produced 2 rows (the third scan GetNext never happens because Top
	// stops asking), Top produced 2: Calls = 4.
	if ctx.Calls() != 4 {
		t.Errorf("ctx.Calls() = %d, want 4", ctx.Calls())
	}
	if b := top.FinalBounds([]CardBounds{{4, 10}}); b.LB != 2 || b.UB != 2 {
		t.Errorf("top bounds = %+v", b)
	}
}

// --- joins -------------------------------------------------------------------

// naiveJoin computes the expected inner equi-join r.a = s.b by brute force.
func naiveJoin(r, s *schema.Relation, rCol, sCol int) []schema.Row {
	var out []schema.Row
	for _, rr := range r.Rows {
		for _, sr := range s.Rows {
			if !rr[rCol].IsNull() && !sr[sCol].IsNull() && sqlval.Compare(rr[rCol], sr[sCol]) == 0 {
				out = append(out, schema.ConcatRows(rr, sr))
			}
		}
	}
	return out
}

func TestHashJoinInner(t *testing.T) {
	r := relOf("r", []string{"a", "x"}, [][]int64{{1, 10}, {2, 20}, {2, 21}, {4, 40}})
	s := relOf("s", []string{"b", "y"}, [][]int64{{2, 200}, {2, 201}, {3, 300}, {4, 400}})
	// probe=r, build=s
	scanR, scanS := NewScan(r), NewScan(s)
	j := NewHashJoin(scanS, scanR,
		[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, InnerJoin)
	ctx := NewCtx()
	rows, err := RunBatch(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, naiveJoin(r, s, 0, 0), "hash join inner")
	// Accounting: build scan 4 + probe scan 4 + join output 5 = 13.
	if len(rows) != 5 {
		t.Fatalf("join rows = %d", len(rows))
	}
	if ctx.Calls() != 13 {
		t.Errorf("ctx.Calls() = %d, want 13", ctx.Calls())
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	r := schema.NewRelation("r", schema.New(schema.Column{Name: "a", Type: sqlval.KindInt}))
	r.Append(schema.Row{sqlval.Null()})
	r.Append(schema.Row{sqlval.Int(1)})
	s := schema.NewRelation("s", schema.New(schema.Column{Name: "b", Type: sqlval.KindInt}))
	s.Append(schema.Row{sqlval.Null()})
	s.Append(schema.Row{sqlval.Int(1)})
	scanR, scanS := NewScan(r), NewScan(s)
	j := NewHashJoin(scanS, scanR,
		[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, InnerJoin)
	rows, err := RunBatch(NewCtx(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("NULL keys joined: %d rows, want 1", len(rows))
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	r := relOf("r", []string{"a"}, [][]int64{{1}, {2}, {3}, {2}})
	s := relOf("s", []string{"b"}, [][]int64{{2}, {2}, {5}})
	mk := func(mode JoinMode) []schema.Row {
		scanR, scanS := NewScan(r), NewScan(s)
		j := NewHashJoin(scanS, scanR,
			[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, mode)
		rows, err := RunBatch(NewCtx(), j)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	semi := mk(SemiJoin)
	if len(semi) != 2 { // both rows with a=2, emitted once each
		t.Errorf("semi rows = %v", rowsToStrings(semi))
	}
	anti := mk(AntiJoin)
	if len(anti) != 2 { // a=1 and a=3
		t.Errorf("anti rows = %v", rowsToStrings(anti))
	}
	for _, row := range semi {
		if row[0].AsInt() != 2 {
			t.Errorf("semi kept %v", row)
		}
	}
}

func TestHashJoinAntiNullProbeEmits(t *testing.T) {
	// NOT EXISTS semantics: NULL probe key finds no match, anti emits it.
	r := schema.NewRelation("r", schema.New(schema.Column{Name: "a", Type: sqlval.KindInt}))
	r.Append(schema.Row{sqlval.Null()})
	s := relOf("s", []string{"b"}, [][]int64{{1}})
	scanR, scanS := NewScan(r), NewScan(s)
	j := NewHashJoin(scanS, scanR,
		[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, AntiJoin)
	rows, err := RunBatch(NewCtx(), j)
	if err != nil || len(rows) != 1 {
		t.Fatalf("anti with NULL probe = %v, %v", rows, err)
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	r := relOf("r", []string{"a"}, [][]int64{{1}, {2}, {3}})
	s := relOf("s", []string{"b", "y"}, [][]int64{{2, 200}, {2, 201}})
	scanR, scanS := NewScan(r), NewScan(s)
	j := NewHashJoin(scanS, scanR,
		[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, LeftOuterJoin)
	rows, err := RunBatch(NewCtx(), j)
	if err != nil {
		t.Fatal(err)
	}
	// a=1 padded, a=2 matches twice, a=3 padded: 4 rows.
	if len(rows) != 4 {
		t.Fatalf("left outer rows = %v", rowsToStrings(rows))
	}
	padded := 0
	for _, row := range rows {
		if row[1].IsNull() && row[2].IsNull() {
			padded++
		}
	}
	if padded != 2 {
		t.Errorf("padded rows = %d, want 2", padded)
	}
}

func TestINLJoinMatchesHashJoin(t *testing.T) {
	r := relOf("r", []string{"a", "x"}, [][]int64{{1, 10}, {2, 20}, {2, 21}, {4, 40}, {7, 70}})
	s := relOf("s", []string{"b", "y"}, [][]int64{{2, 200}, {2, 201}, {3, 300}, {4, 400}})
	scanR := NewScan(r)
	j := NewINLJoin(scanR, s, 0, col(scanR, "r", "a"), InnerJoin)
	rows, err := RunBatch(NewCtx(), j)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, naiveJoin(r, s, 0, 0), "INL join inner")
}

func TestINLJoinAccountingMatchesPaperExample(t *testing.T) {
	// Example 1's arithmetic: scan |R1| + sigma output + join output.
	// R1 has 10 rows, 1 passes the filter, joining with 4 rows of R2:
	// total = 10 + 1 + 4 = 15.
	var r1Rows [][]int64
	for i := int64(0); i < 10; i++ {
		r1Rows = append(r1Rows, []int64{i})
	}
	r1 := relOf("r1", []string{"a"}, r1Rows)
	r2 := relOf("r2", []string{"b"}, [][]int64{{3}, {3}, {3}, {3}, {9}})
	scan := NewScan(r1)
	filter := NewFilter(scan, expr.Compare(expr.EQ, col(scan, "r1", "a"), intLit(3)))
	join := NewINLJoin(filter, r2, 0, expr.NewCol(filter.Schema(), "r1", "a"), InnerJoin)
	ctx := NewCtx()
	rows, err := RunBatch(ctx, join)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("join rows = %d", len(rows))
	}
	if ctx.Calls() != 15 {
		t.Errorf("total GetNext = %d, want 15 (10 scan + 1 filter + 4 join)", ctx.Calls())
	}
	if got := TotalCalls(join); got != 15 {
		t.Errorf("TotalCalls = %d, want 15", got)
	}
}

func TestINLJoinSemiAnti(t *testing.T) {
	r := relOf("r", []string{"a"}, [][]int64{{1}, {2}, {3}})
	s := relOf("s", []string{"b"}, [][]int64{{2}, {2}})
	scanR := NewScan(r)
	semi := NewINLJoin(scanR, s, 0, col(scanR, "r", "a"), SemiJoin)
	rows, err := RunBatch(NewCtx(), semi)
	if err != nil || len(rows) != 1 || rows[0][0].AsInt() != 2 {
		t.Errorf("INL semi = %v, %v", rowsToStrings(rows), err)
	}
	scanR2 := NewScan(r)
	anti := NewINLJoin(scanR2, s, 0, col(scanR2, "r", "a"), AntiJoin)
	rows, err = RunBatch(NewCtx(), anti)
	if err != nil || len(rows) != 2 {
		t.Errorf("INL anti = %v, %v", rowsToStrings(rows), err)
	}
}

func TestINLJoinLeftOuter(t *testing.T) {
	r := relOf("r", []string{"a"}, [][]int64{{1}, {2}})
	s := relOf("s", []string{"b"}, [][]int64{{2}})
	scanR := NewScan(r)
	j := NewINLJoin(scanR, s, 0, col(scanR, "r", "a"), LeftOuterJoin)
	rows, err := RunBatch(NewCtx(), j)
	if err != nil || len(rows) != 2 {
		t.Fatalf("INL left outer = %v, %v", rowsToStrings(rows), err)
	}
}

func TestNLJoinMatchesHashJoin(t *testing.T) {
	r := relOf("r", []string{"a", "x"}, [][]int64{{1, 10}, {2, 20}, {2, 21}})
	s := relOf("s", []string{"b", "y"}, [][]int64{{2, 200}, {1, 100}, {2, 201}})
	scanR, scanS := NewScan(r), NewScan(s)
	j := NewNLJoin(scanR, scanS, expr.Compare(expr.EQ,
		expr.Col{Index: 0}, expr.Col{Index: 2}))
	ctx := NewCtx()
	rows, err := RunBatch(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, naiveJoin(r, s, 0, 0), "NL join")
	// Inner is a counted subtree: 3 outer + 3*3 inner + 5 join outputs = 17.
	if ctx.Calls() != 17 {
		t.Errorf("NL join calls = %d, want 17", ctx.Calls())
	}
	if r := NodeSnapshot(scanS).Rescans; r != 2 {
		t.Errorf("inner rescans = %d, want 2", r)
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	r := relOf("r", []string{"a", "x"}, [][]int64{{4, 40}, {1, 10}, {2, 20}, {2, 21}, {9, 90}})
	s := relOf("s", []string{"b", "y"}, [][]int64{{2, 200}, {2, 201}, {3, 300}, {4, 400}, {2, 202}})
	scanR, scanS := NewScan(r), NewScan(s)
	sortR := NewSort(scanR, []SortKey{{Expr: col(scanR, "r", "a")}})
	sortS := NewSort(scanS, []SortKey{{Expr: col(scanS, "s", "b")}})
	j := NewMergeJoin(sortR, sortS,
		[]expr.Expr{expr.NewCol(sortR.Schema(), "r", "a")},
		[]expr.Expr{expr.NewCol(sortS.Schema(), "s", "b")})
	rows, err := RunBatch(NewCtx(), j)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, naiveJoin(r, s, 0, 0), "merge join")
}

func TestMergeJoinDuplicateRuns(t *testing.T) {
	// Both sides have runs of the same key: 3x2 = 6 output rows for key 7.
	r := relOf("r", []string{"a"}, [][]int64{{7}, {7}, {7}, {1}})
	s := relOf("s", []string{"b"}, [][]int64{{7}, {7}, {2}})
	scanR, scanS := NewScan(r), NewScan(s)
	sortR := NewSort(scanR, []SortKey{{Expr: col(scanR, "r", "a")}})
	sortS := NewSort(scanS, []SortKey{{Expr: col(scanS, "s", "b")}})
	j := NewMergeJoin(sortR, sortS,
		[]expr.Expr{expr.NewCol(sortR.Schema(), "r", "a")},
		[]expr.Expr{expr.NewCol(sortS.Schema(), "s", "b")})
	rows, err := RunBatch(NewCtx(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Errorf("merge join duplicate runs = %d rows, want 6", len(rows))
	}
}

func TestMergeJoinSkipsNullKeys(t *testing.T) {
	r := schema.NewRelation("r", schema.New(schema.Column{Name: "a", Type: sqlval.KindInt}))
	r.Append(schema.Row{sqlval.Null()})
	r.Append(schema.Row{sqlval.Int(1)})
	s := schema.NewRelation("s", schema.New(schema.Column{Name: "b", Type: sqlval.KindInt}))
	s.Append(schema.Row{sqlval.Null()})
	s.Append(schema.Row{sqlval.Int(1)})
	scanR, scanS := NewScan(r), NewScan(s)
	sortR := NewSort(scanR, []SortKey{{Expr: col(scanR, "r", "a")}})
	sortS := NewSort(scanS, []SortKey{{Expr: col(scanS, "s", "b")}})
	j := NewMergeJoin(sortR, sortS,
		[]expr.Expr{expr.NewCol(sortR.Schema(), "r", "a")},
		[]expr.Expr{expr.NewCol(sortS.Schema(), "s", "b")})
	rows, err := RunBatch(NewCtx(), j)
	if err != nil || len(rows) != 1 {
		t.Fatalf("merge join with NULLs = %v, %v", rowsToStrings(rows), err)
	}
}

// --- sort / agg ---------------------------------------------------------------

func TestSortAscDesc(t *testing.T) {
	rel := relOf("r", []string{"a", "b"}, [][]int64{{2, 1}, {1, 2}, {2, 3}, {1, 1}})
	sc := NewScan(rel)
	s := NewSort(sc, []SortKey{
		{Expr: col(sc, "r", "a")},
		{Expr: col(sc, "r", "b"), Desc: true},
	})
	ctx := NewCtx()
	rows, err := RunBatch(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 2}, {1, 1}, {2, 3}, {2, 1}}
	for i, w := range want {
		if rows[i][0].AsInt() != w[0] || rows[i][1].AsInt() != w[1] {
			t.Errorf("row %d = %v, want %v", i, rows[i], w)
		}
	}
	// Accounting: 4 scanned + 4 emitted = 8.
	if ctx.Calls() != 8 {
		t.Errorf("ctx.Calls() = %d, want 8", ctx.Calls())
	}
}

func TestHashAggGroups(t *testing.T) {
	rel := relOf("r", []string{"g", "v"}, [][]int64{{1, 10}, {2, 20}, {1, 30}, {2, 5}, {3, 1}})
	sc := NewScan(rel)
	agg := NewHashAgg(sc,
		[]expr.Expr{col(sc, "r", "g")}, []string{"g"}, []sqlval.Kind{sqlval.KindInt},
		[]expr.Agg{
			{Kind: expr.AggSum, Arg: col(sc, "r", "v"), Name: "sum_v"},
			{Kind: expr.AggCountStar, Name: "cnt"},
			{Kind: expr.AggMin, Arg: col(sc, "r", "v"), Name: "min_v"},
		})
	rows, err := RunBatch(NewCtx(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	// Deterministic sorted-by-key order: g=1,2,3.
	checks := []struct{ g, sum, cnt, min int64 }{{1, 40, 2, 10}, {2, 25, 2, 5}, {3, 1, 1, 1}}
	for i, c := range checks {
		r := rows[i]
		if r[0].AsInt() != c.g || r[1].AsInt() != c.sum || r[2].AsInt() != c.cnt || r[3].AsInt() != c.min {
			t.Errorf("group %d = %v, want %+v", i, r, c)
		}
	}
}

func TestHashAggGroupsWithNullKeys(t *testing.T) {
	rel := schema.NewRelation("r", schema.New(
		schema.Column{Name: "g", Type: sqlval.KindInt},
		schema.Column{Name: "v", Type: sqlval.KindInt},
	))
	rel.Append(schema.Row{sqlval.Null(), sqlval.Int(1)})
	rel.Append(schema.Row{sqlval.Null(), sqlval.Int(2)})
	rel.Append(schema.Row{sqlval.Int(1), sqlval.Int(3)})
	sc := NewScan(rel)
	agg := NewHashAgg(sc,
		[]expr.Expr{col(sc, "r", "g")}, []string{"g"}, []sqlval.Kind{sqlval.KindInt},
		[]expr.Agg{{Kind: expr.AggSum, Arg: col(sc, "r", "v"), Name: "s"}})
	rows, err := RunBatch(NewCtx(), agg)
	if err != nil {
		t.Fatal(err)
	}
	// SQL GROUP BY: NULLs form one group.
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows))
	}
	if !rows[0][0].IsNull() || rows[0][1].AsInt() != 3 {
		t.Errorf("null group = %v", rows[0])
	}
}

func TestStreamAggGrouped(t *testing.T) {
	rel := relOf("r", []string{"g", "v"}, [][]int64{{1, 10}, {1, 30}, {2, 20}, {2, 5}, {3, 1}})
	sc := NewScan(rel) // already sorted by g
	agg := NewStreamAgg(sc,
		[]expr.Expr{col(sc, "r", "g")}, []string{"g"}, []sqlval.Kind{sqlval.KindInt},
		[]expr.Agg{{Kind: expr.AggSum, Arg: col(sc, "r", "v"), Name: "s"}})
	rows, err := RunBatch(NewCtx(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	wants := []struct{ g, s int64 }{{1, 40}, {2, 25}, {3, 1}}
	for i, w := range wants {
		if rows[i][0].AsInt() != w.g || rows[i][1].AsInt() != w.s {
			t.Errorf("group %d = %v", i, rows[i])
		}
	}
}

func TestStreamAggScalar(t *testing.T) {
	rel := relOf("r", []string{"v"}, [][]int64{{1}, {2}, {3}})
	sc := NewScan(rel)
	agg := NewStreamAgg(sc, nil, nil, nil,
		[]expr.Agg{
			{Kind: expr.AggCountStar, Name: "cnt"},
			{Kind: expr.AggAvg, Arg: col(sc, "r", "v"), Name: "avg_v"},
		})
	rows, err := RunBatch(NewCtx(), agg)
	if err != nil || len(rows) != 1 {
		t.Fatalf("scalar agg = %v, %v", rows, err)
	}
	if rows[0][0].AsInt() != 3 || rows[0][1].AsFloat() != 2 {
		t.Errorf("scalar agg row = %v", rows[0])
	}
}

func TestStreamAggScalarEmptyInput(t *testing.T) {
	rel := relOf("r", []string{"v"}, nil)
	sc := NewScan(rel)
	agg := NewStreamAgg(sc, nil, nil, nil,
		[]expr.Agg{{Kind: expr.AggCountStar, Name: "cnt"}})
	rows, err := RunBatch(NewCtx(), agg)
	if err != nil || len(rows) != 1 {
		t.Fatalf("scalar agg over empty = %v, %v", rows, err)
	}
	if rows[0][0].AsInt() != 0 {
		t.Errorf("COUNT(*) over empty = %v", rows[0][0])
	}
}

// HashAgg and StreamAgg agree on sorted input.
func TestAggEquivalence(t *testing.T) {
	var data [][]int64
	for i := int64(0); i < 100; i++ {
		data = append(data, []int64{i % 7, i * 3})
	}
	rel := relOf("r", []string{"g", "v"}, data)
	aggs := func(sc Operator) []expr.Agg {
		return []expr.Agg{
			{Kind: expr.AggSum, Arg: expr.NewCol(sc.Schema(), "r", "v"), Name: "s"},
			{Kind: expr.AggCount, Arg: expr.NewCol(sc.Schema(), "r", "v"), Name: "c"},
			{Kind: expr.AggMax, Arg: expr.NewCol(sc.Schema(), "r", "v"), Name: "m"},
		}
	}
	sc1 := NewScan(rel)
	hash := NewHashAgg(sc1, []expr.Expr{col(sc1, "r", "g")}, []string{"g"}, []sqlval.Kind{sqlval.KindInt}, aggs(sc1))
	hrows, err := RunBatch(NewCtx(), hash)
	if err != nil {
		t.Fatal(err)
	}
	sc2 := NewScan(rel)
	srt := NewSort(sc2, []SortKey{{Expr: col(sc2, "r", "g")}})
	stream := NewStreamAgg(srt, []expr.Expr{expr.NewCol(srt.Schema(), "r", "g")}, []string{"g"}, []sqlval.Kind{sqlval.KindInt}, aggs(srt))
	srows, err := RunBatch(NewCtx(), stream)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, hrows, srows, "hash vs stream agg")
}

// --- randomized cross-validation ---------------------------------------------

func TestJoinAlgorithmsAgreeRandomized(t *testing.T) {
	// All four join algorithms must produce identical inner-join results on
	// random data, for several seeds.
	for seed := int64(0); seed < 8; seed++ {
		n1, n2 := int(50+seed*13), int(60+seed*7)
		var rRows, sRows [][]int64
		rnd := func(i, m int64) int64 { return (i*2654435761 + m*seed + seed) % 17 }
		for i := 0; i < n1; i++ {
			rRows = append(rRows, []int64{rnd(int64(i), 1), int64(i)})
		}
		for i := 0; i < n2; i++ {
			sRows = append(sRows, []int64{rnd(int64(i), 5), int64(1000 + i)})
		}
		r := relOf("r", []string{"a", "x"}, rRows)
		s := relOf("s", []string{"b", "y"}, sRows)
		want := naiveJoin(r, s, 0, 0)

		// Hash join.
		scanR, scanS := NewScan(r), NewScan(s)
		hj := NewHashJoin(scanS, scanR,
			[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, InnerJoin)
		hRows, err := RunBatch(NewCtx(), hj)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, hRows, want, fmt.Sprintf("hash seed=%d", seed))

		// INL join.
		scanR2 := NewScan(r)
		inl := NewINLJoin(scanR2, s, 0, col(scanR2, "r", "a"), InnerJoin)
		iRows, err := RunBatch(NewCtx(), inl)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, iRows, want, fmt.Sprintf("inl seed=%d", seed))

		// Merge join.
		scanR3, scanS3 := NewScan(r), NewScan(s)
		sortR := NewSort(scanR3, []SortKey{{Expr: col(scanR3, "r", "a")}})
		sortS := NewSort(scanS3, []SortKey{{Expr: col(scanS3, "s", "b")}})
		mj := NewMergeJoin(sortR, sortS,
			[]expr.Expr{expr.NewCol(sortR.Schema(), "r", "a")},
			[]expr.Expr{expr.NewCol(sortS.Schema(), "s", "b")})
		mRows, err := RunBatch(NewCtx(), mj)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, mRows, want, fmt.Sprintf("merge seed=%d", seed))

		// NL join.
		scanR4, scanS4 := NewScan(r), NewScan(s)
		nl := NewNLJoin(scanR4, scanS4, expr.Compare(expr.EQ, expr.Col{Index: 0}, expr.Col{Index: 2}))
		nRows, err := RunBatch(NewCtx(), nl)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, nRows, want, fmt.Sprintf("nl seed=%d", seed))
	}
}

// --- bounds & structure --------------------------------------------------------

func TestJoinFinalBounds(t *testing.T) {
	r := relOf("r", []string{"a"}, [][]int64{{1}, {2}})
	s := relOf("s", []string{"b"}, [][]int64{{1}, {2}, {3}})
	scanR, scanS := NewScan(r), NewScan(s)
	j := NewHashJoin(scanS, scanR,
		[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, InnerJoin)
	ch := []CardBounds{{3, 3}, {2, 2}}
	if b := j.FinalBounds(ch); b.UB != 6 {
		t.Errorf("non-linear UB = %d, want 6", b.UB)
	}
	j.Linear = true
	if b := j.FinalBounds(ch); b.UB != 3 {
		t.Errorf("linear UB = %d, want 3", b.UB)
	}
	semi := NewHashJoin(scanS, scanR,
		[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, SemiJoin)
	if b := semi.FinalBounds(ch); b.UB != 2 {
		t.Errorf("semi UB = %d, want 2 (probe side)", b.UB)
	}
	lo := NewHashJoin(scanS, scanR,
		[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, LeftOuterJoin)
	if b := lo.FinalBounds(ch); b.LB != 2 {
		t.Errorf("left outer LB = %d, want 2 (probe rows preserved)", b.LB)
	}
}

func TestINLBoundsUseIndexFanout(t *testing.T) {
	s := relOf("s", []string{"b"}, [][]int64{{1}, {1}, {1}, {2}})
	r := relOf("r", []string{"a"}, [][]int64{{1}, {2}})
	scanR := NewScan(r)
	j := NewINLJoin(scanR, s, 0, col(scanR, "r", "a"), InnerJoin)
	b := j.FinalBounds([]CardBounds{{2, 2}})
	// UB = outer * maxFanout = 2*3 = 6 (less than 2*4 = 8 via innerCard).
	if b.UB != 6 {
		t.Errorf("INL UB = %d, want 6", b.UB)
	}
	j.Linear = true
	if b := j.FinalBounds([]CardBounds{{2, 2}}); b.UB != 4 {
		t.Errorf("linear INL UB = %d, want max(2,4)=4", b.UB)
	}

	// Over a skewed inner column of any kind — dense or sparse integers, or
	// strings — UB is the outer UB times the most inner rows one outer key
	// finds. Inner keys that round to one float64 count together, since a
	// float outer key finds them all.
	const two53 = int64(1) << 53
	ints := func(ks ...int64) []sqlval.Value {
		vs := make([]sqlval.Value, len(ks))
		for i, k := range ks {
			vs[i] = sqlval.Int(k)
		}
		return vs
	}
	null, str := sqlval.Null(), sqlval.String
	cases := []struct {
		name  string
		inner []sqlval.Value
		most  int64
	}{
		{"dense-int", append(ints(1, 2, 1, 3, 1, 4, 1), null, null, null, null, null), 4},
		{"sparse-int", ints(1e12, -5, 1e12, 7e15, 1e12, 42), 3},
		{"string", []sqlval.Value{str("a"), str("b"), str("a"), str("c"), str("a"), str("a"), str("d")}, 4},
		{"2^53", ints(two53+1, 5, two53, two53+1, 6, 7), 3},
	}
	const outerUB = 10
	for _, c := range cases {
		inner := relOf("s", []string{"b"}, nil)
		for _, k := range c.inner {
			inner.Append(schema.Row{k})
		}
		j := NewINLJoin(scanR, inner, 0, col(scanR, "r", "a"), InnerJoin)
		if got := j.FinalBounds([]CardBounds{{0, outerUB}}).UB; got != outerUB*c.most {
			t.Errorf("%s: UB = %d, want %d × %d", c.name, got, outerUB, c.most)
		}
	}
}

func TestSatArithmetic(t *testing.T) {
	if SatMul(Unbounded, 2) != Unbounded || SatMul(2, Unbounded) != Unbounded {
		t.Error("SatMul should saturate")
	}
	if SatMul(0, Unbounded) != 0 {
		t.Error("SatMul(0, x) = 0")
	}
	if SatMul(3, 4) != 12 {
		t.Error("SatMul small values exact")
	}
	if SatAdd(Unbounded, 1) != Unbounded || SatAdd(1, 2) != 3 {
		t.Error("SatAdd")
	}
}

func TestPipelineStructureMetadata(t *testing.T) {
	r := relOf("r", []string{"a"}, [][]int64{{1}})
	s := relOf("s", []string{"b"}, [][]int64{{1}})
	scanR, scanS := NewScan(r), NewScan(s)
	hj := NewHashJoin(scanS, scanR,
		[]expr.Expr{col(scanS, "s", "b")}, []expr.Expr{col(scanR, "r", "a")}, InnerJoin)
	if got := hj.StreamChildren(); len(got) != 1 || got[0] != 1 {
		t.Errorf("hash join stream children = %v", got)
	}
	nl := NewNLJoin(scanR, scanS, nil)
	var _ Rescanner = nl
	if got := nl.RescannedChildren(); len(got) != 1 || got[0] != 1 {
		t.Errorf("NL rescanned children = %v", got)
	}
}

func TestWalkAndExplain(t *testing.T) {
	r := relOf("r", []string{"a"}, [][]int64{{1}, {2}})
	sc := NewScan(r)
	f := NewFilter(sc, expr.Compare(expr.GT, col(sc, "r", "a"), intLit(0)))
	if _, err := RunBatch(NewCtx(), f); err != nil {
		t.Fatal(err)
	}
	var names []string
	Walk(f, func(o Operator) { names = append(names, o.Name()) })
	if len(names) != 2 || !strings.HasPrefix(names[0], "Filter") || !strings.HasPrefix(names[1], "Scan") {
		t.Errorf("walk order = %v", names)
	}
	out := Explain(f)
	if !strings.Contains(out, "Scan(r)") || !strings.Contains(out, "rows=2") {
		t.Errorf("explain = %q", out)
	}
}

func TestEstimatedCard(t *testing.T) {
	r := relOf("r", []string{"a"}, [][]int64{{1}})
	sc := NewScan(r)
	if sc.EstimatedCard() != -1 {
		t.Error("default estimate should be -1")
	}
	sc.SetEstimatedCard(42)
	if sc.EstimatedCard() != 42 {
		t.Error("estimate round-trip")
	}
}

func TestOnGetNextHook(t *testing.T) {
	r := relOf("r", []string{"a"}, [][]int64{{1}, {2}, {3}})
	ctx := NewCtx()
	var samples []int64
	ctx.OnGetNext = func(n int64) { samples = append(samples, n) }
	if _, err := RunBatch(ctx, NewScan(r)); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || samples[0] != 1 || samples[2] != 3 {
		t.Errorf("samples = %v", samples)
	}
}

func TestScanEmbeddedPredicateAccounting(t *testing.T) {
	// A pushed-down predicate must not change the scan's GetNext count:
	// every scanned row costs one call, only passing rows are delivered.
	rel := relOf("r", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}})
	sc := NewScan(rel)
	sc.Pred = expr.Compare(expr.GT, col(sc, "r", "a"), intLit(4))
	ctx := NewCtx()
	rows, err := RunBatch(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("delivered rows = %d, want 2", len(rows))
	}
	if ctx.Calls() != 6 {
		t.Errorf("calls = %d, want 6 (every scanned row counts)", ctx.Calls())
	}
	if rt := NodeSnapshot(sc); rt.Returned != 6 || !rt.Done {
		t.Errorf("runtime = %+v", rt)
	}
}

func TestRangeScanEmbeddedPredicate(t *testing.T) {
	rel := relOf("r", []string{"a", "b"}, [][]int64{{1, 0}, {2, 1}, {3, 0}, {4, 1}, {5, 0}})
	ix := index.BuildOrdered("ix", rel, 0)
	lo := sqlval.Int(2)
	rs := NewRangeScan(ix, &lo, nil, true, false)
	rs.Pred = expr.Compare(expr.EQ, expr.Col{Index: 1}, intLit(1))
	ctx := NewCtx()
	rows, err := RunBatch(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("delivered = %d, want 2 (a in {2,4})", len(rows))
	}
	if ctx.Calls() != 4 {
		t.Errorf("calls = %d, want 4 (range [2,5] scanned)", ctx.Calls())
	}
}

func TestDistinct(t *testing.T) {
	rel := relOf("r", []string{"a", "b"}, [][]int64{{1, 1}, {2, 2}, {1, 1}, {1, 2}, {2, 2}})
	d := NewDistinct(NewScan(rel))
	ctx := NewCtx()
	rows, err := RunBatch(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("distinct rows = %d, want 3", len(rows))
	}
	// Order-preserving: first occurrences in input order.
	if rows[0][0].AsInt() != 1 || rows[1][0].AsInt() != 2 || rows[2][1].AsInt() != 2 {
		t.Errorf("distinct order = %v", rows)
	}
	// Accounting: 5 scanned + 3 emitted.
	if ctx.Calls() != 8 {
		t.Errorf("calls = %d, want 8", ctx.Calls())
	}
	if b := d.FinalBounds([]CardBounds{{5, 5}}); b.LB != 1 || b.UB != 5 {
		t.Errorf("bounds = %+v", b)
	}
}

func TestDistinctWithNulls(t *testing.T) {
	rel := schema.NewRelation("r", schema.New(schema.Column{Name: "a", Type: sqlval.KindInt}))
	rel.Append(schema.Row{sqlval.Null()})
	rel.Append(schema.Row{sqlval.Null()})
	rel.Append(schema.Row{sqlval.Int(1)})
	rows, err := RunBatch(NewCtx(), NewDistinct(NewScan(rel)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("NULLs should deduplicate: %d rows", len(rows))
	}
}

func TestCancellation(t *testing.T) {
	rel := relOf("r", []string{"a"}, nil)
	for i := int64(0); i < 1000; i++ {
		rel.Append(schema.Row{sqlval.Int(i)})
	}
	sc := NewScan(rel)
	ctx := NewCtx()
	ctx.OnGetNext = func(calls int64) {
		if calls == 100 {
			ctx.Cancel()
		}
	}
	_, err := RunBatch(ctx, sc)
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ctx.Calls() != 100 {
		t.Errorf("calls at cancel = %d, want 100", ctx.Calls())
	}
	if !ctx.canceled.Load() {
		t.Error("Canceled() should report true")
	}
}

func TestCancellationInsideBlockingBuild(t *testing.T) {
	// Cancel during a sort's build phase: the error must surface from Open.
	rel := relOf("r", []string{"a"}, nil)
	for i := int64(0); i < 500; i++ {
		rel.Append(schema.Row{sqlval.Int(499 - i)})
	}
	sc := NewScan(rel)
	srt := NewSort(sc, []SortKey{{Expr: col(sc, "r", "a")}})
	ctx := NewCtx()
	ctx.OnGetNext = func(calls int64) {
		if calls == 50 {
			ctx.Cancel()
		}
	}
	_, err := RunBatch(ctx, srt)
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// faultOp fails after emitting N rows — the failure-injection fixture.
type faultOp struct {
	base
	child Operator
	after int64
	n     int64
	in    Batch
}

func newFaultOp(child Operator, after int64) *faultOp {
	f := &faultOp{child: child, after: after}
	f.init(child.Schema())
	return f
}

func (f *faultOp) Open(ctx *Ctx) error {
	f.reopen()
	f.n = 0
	return f.child.Open(ctx)
}

func (f *faultOp) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return f.rowWise(ctx, b, want, func(ctx *Ctx) (schema.Row, bool, error) {
		if f.n >= f.after {
			return nil, false, fmt.Errorf("injected fault after %d rows", f.after)
		}
		row, ok, err := pullOne(ctx, f.child, &f.in)
		if ok {
			f.n++
		}
		return row, ok, err
	})
}

func (f *faultOp) Close() error                           { return f.child.Close() }
func (f *faultOp) Children() []Operator                   { return []Operator{f.child} }
func (f *faultOp) Name() string                           { return "Fault" }
func (f *faultOp) FinalBounds(ch []CardBounds) CardBounds { return ch[0] }
func (f *faultOp) StreamChildren() []int                  { return []int{0} }

func TestErrorPropagation(t *testing.T) {
	rel := relOf("r", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}})
	rel2 := relOf("s", []string{"b"}, [][]int64{{1}, {2}, {3}})

	build := func(wrap func(Operator) Operator) error {
		sc := NewScan(rel)
		_, err := RunBatch(NewCtx(), wrap(newFaultOp(sc, 2)))
		return err
	}
	cases := []struct {
		name string
		wrap func(Operator) Operator
	}{
		{"filter", func(c Operator) Operator {
			return NewFilter(c, expr.Literal(sqlval.Bool(true)))
		}},
		{"project", func(c Operator) Operator {
			return NewProject(c, []expr.Expr{expr.Col{Index: 0}}, []string{"a"}, []sqlval.Kind{sqlval.KindInt})
		}},
		{"sort", func(c Operator) Operator {
			return NewSort(c, []SortKey{{Expr: expr.Col{Index: 0}}})
		}},
		{"hashagg", func(c Operator) Operator {
			return NewHashAgg(c, []expr.Expr{expr.Col{Index: 0}}, []string{"a"}, []sqlval.Kind{sqlval.KindInt},
				[]expr.Agg{{Kind: expr.AggCountStar, Name: "n"}})
		}},
		{"distinct", func(c Operator) Operator { return NewDistinct(c) }},
		{"top", func(c Operator) Operator { return NewTop(c, 10) }},
		{"hashjoin-probe", func(c Operator) Operator {
			s2 := NewScan(rel2)
			return NewHashJoin(s2, c, []expr.Expr{expr.Col{Index: 0}}, []expr.Expr{expr.Col{Index: 0}}, InnerJoin)
		}},
		{"hashjoin-build", func(c Operator) Operator {
			s2 := NewScan(rel2)
			return NewHashJoin(c, s2, []expr.Expr{expr.Col{Index: 0}}, []expr.Expr{expr.Col{Index: 0}}, InnerJoin)
		}},
		{"mergejoin", func(c Operator) Operator {
			s2 := NewScan(rel2)
			return NewMergeJoin(c, s2, []expr.Expr{expr.Col{Index: 0}}, []expr.Expr{expr.Col{Index: 0}})
		}},
		{"nljoin-outer", func(c Operator) Operator {
			return NewNLJoin(c, NewScan(rel2), nil)
		}},
	}
	for _, tc := range cases {
		err := build(tc.wrap)
		if err == nil || !strings.Contains(err.Error(), "injected fault") {
			t.Errorf("%s: error not propagated, got %v", tc.name, err)
		}
	}
}

// TotalCalls sums Returned over the tree: the total GetNext calls performed
// so far (Curr; after completion, total(Q)).
func TotalCalls(op Operator) int64 {
	var total int64
	Walk(op, func(o Operator) { total += o.progressBase().slot.Returned })
	return total
}
