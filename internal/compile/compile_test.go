package compile

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
	"sqlprogress/internal/tpch"
)

// testCatalog: dept(dkey unique, dname), emp(ekey, edept FK->dept, sal),
// bonus(bkey, bemp).
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	dept := schema.NewRelation("dept", schema.New(
		schema.Column{Name: "dkey", Type: sqlval.KindInt},
		schema.Column{Name: "dname", Type: sqlval.KindString},
	))
	names := []string{"eng", "ops", "hr", "fin", "mkt"}
	for i := int64(0); i < 5; i++ {
		dept.Append(schema.Row{sqlval.Int(i), sqlval.String(names[i])})
	}
	emp := schema.NewRelation("emp", schema.New(
		schema.Column{Name: "ekey", Type: sqlval.KindInt},
		schema.Column{Name: "edept", Type: sqlval.KindInt},
		schema.Column{Name: "sal", Type: sqlval.KindInt},
		schema.Column{Name: "hired", Type: sqlval.KindDate},
	))
	for i := int64(0); i < 60; i++ {
		emp.Append(schema.Row{
			sqlval.Int(i), sqlval.Int(i % 5), sqlval.Int(100 * (i % 9)),
			sqlval.Date(9000 + i*10),
		})
	}
	bonus := schema.NewRelation("bonus", schema.New(
		schema.Column{Name: "bkey", Type: sqlval.KindInt},
		schema.Column{Name: "bemp", Type: sqlval.KindInt},
	))
	for i := int64(0); i < 20; i++ {
		bonus.Append(schema.Row{sqlval.Int(i), sqlval.Int(i * 3)})
	}
	cat.AddRelation(dept)
	cat.AddRelation(emp)
	cat.AddRelation(bonus)
	cat.DeclareForeignKey(catalog.ForeignKey{
		ChildTable: "emp", ChildColumn: "edept",
		ParentTable: "dept", ParentColumn: "dkey"})
	return cat
}

func runSQL(t *testing.T, sql string) []schema.Row {
	t.Helper()
	op, err := CompileSQL(testCatalog(), sql)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	rows, err := exec.RunBatch(exec.NewCtx(), op)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows
}

func TestSelectStar(t *testing.T) {
	rows := runSQL(t, "SELECT * FROM emp")
	if len(rows) != 60 || len(rows[0]) != 4 {
		t.Fatalf("shape = %d x %d", len(rows), len(rows[0]))
	}
}

func TestWherePushdown(t *testing.T) {
	op, err := CompileSQL(testCatalog(), "SELECT ekey FROM emp WHERE sal > 500 AND edept = 1")
	if err != nil {
		t.Fatal(err)
	}
	// The predicate must be embedded in the scan: no Filter node in the tree.
	var hasFilter bool
	exec.Walk(op, func(o exec.Operator) {
		if strings.HasPrefix(o.Name(), "Filter") {
			hasFilter = true
		}
	})
	if hasFilter {
		t.Error("single-table predicates should be pushed into the scan")
	}
	rows, err := exec.RunBatch(exec.NewCtx(), op)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		k := r[0].AsInt()
		if k%5 != 1 {
			t.Errorf("row %v violates edept=1", r)
		}
	}
	// sal for i%9 in {6,7,8} => 600..800; i%5==1: i in 1,6,11,...
	want := 0
	for i := int64(0); i < 60; i++ {
		if i%5 == 1 && 100*(i%9) > 500 {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("rows = %d, want %d", len(rows), want)
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	rows := runSQL(t, "SELECT ekey + 1 AS next, sal / 2 half FROM emp LIMIT 3")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1][0].AsInt() != 2 {
		t.Errorf("ekey+1 = %v", rows[1][0])
	}
}

func TestExplicitJoin(t *testing.T) {
	rows := runSQL(t, `SELECT e.ekey, d.dname FROM emp e JOIN dept d ON e.edept = d.dkey WHERE d.dname = 'eng'`)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r[1].AsString() != "eng" {
			t.Errorf("joined row %v", r)
		}
	}
}

func TestCommaJoin(t *testing.T) {
	rows := runSQL(t, `SELECT e.ekey FROM emp e, dept d WHERE e.edept = d.dkey AND d.dname = 'ops'`)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
}

func TestJoinIsLinearWhenFK(t *testing.T) {
	op, err := CompileSQL(testCatalog(), "SELECT 1 FROM emp, dept WHERE edept = dkey")
	if err != nil {
		t.Fatal(err)
	}
	var linear bool
	exec.Walk(op, func(o exec.Operator) {
		if hj, ok := o.(*exec.HashJoin); ok && hj.Linear {
			linear = true
		}
	})
	if !linear {
		t.Error("FK equi-join should be compiled as a linear hash join")
	}
}

func TestLeftJoin(t *testing.T) {
	// Every dept row appears; emp is never filtered below a left join.
	rows := runSQL(t, `SELECT d.dname, e.ekey FROM dept d LEFT JOIN emp e ON d.dkey = e.edept`)
	if len(rows) != 60 {
		t.Fatalf("rows = %d, want 60 (every dept matches)", len(rows))
	}
	// A dept with no employees pads with NULL.
	cat := testCatalog()
	extra := cat.MustRelation("dept")
	extra.Append(schema.Row{sqlval.Int(99), sqlval.String("empty")})
	op, err := CompileSQL(cat, `SELECT d.dname, e.ekey FROM dept d LEFT JOIN emp e ON d.dkey = e.edept`)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := exec.RunBatch(exec.NewCtx(), op)
	if err != nil {
		t.Fatal(err)
	}
	var padded int
	for _, r := range rows2 {
		if r[1].IsNull() {
			padded++
		}
	}
	if padded != 1 {
		t.Errorf("padded rows = %d, want 1", padded)
	}
}

// TestLeftJoinWhereOnOuterTable: a WHERE conjunct on the LEFT-joined
// table filters above the join. It may not be pushed into that table's
// scan, and it may not be dropped either.
func TestLeftJoinWhereOnOuterTable(t *testing.T) {
	rows := runSQL(t, `SELECT d.dname, e.ekey, e.sal FROM dept d LEFT JOIN emp e ON d.dkey = e.edept WHERE e.sal > 600`)
	// sal = 100·(ekey mod 9): ekey mod 9 in {7, 8}, 12 of the 60 emps.
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 (the emps with sal > 600)", len(rows))
	}
	for _, r := range rows {
		if r[2].IsNull() || r[2].AsInt() <= 600 {
			t.Errorf("row %v violates e.sal > 600", r)
		}
	}
}

// TestLeftJoinOnConjunctOnJoinedTable: a LEFT JOIN's ON conjunct on the
// joined table alone filters that table's scan, so a row it rejects matches
// nothing; it may not be dropped. Any other non-equi ON conjunct is an error.
func TestLeftJoinOnConjunctOnJoinedTable(t *testing.T) {
	// sal = 100·(ekey mod 9) < 100 holds for 7 emps (ekey mod 9 = 0), and
	// they cover all five depts, so no dept is padded.
	rows := runSQL(t, `SELECT COUNT(*) FROM dept d LEFT JOIN emp e ON d.dkey = e.edept AND e.sal < 100`)
	if got := rows[0][0].AsInt(); got != 7 {
		t.Fatalf("COUNT(*) = %d, want 7", got)
	}
	rows = runSQL(t, `SELECT d.dname, e.ekey FROM dept d LEFT JOIN emp e ON d.dkey = e.edept AND e.sal > 800`)
	for _, r := range rows {
		if !r[1].IsNull() {
			t.Fatalf("row %v: no emp has sal > 800, every dept must be padded", r)
		}
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want the 5 depts padded", len(rows))
	}
	for _, sql := range []string{
		`SELECT e.ekey FROM dept d LEFT JOIN emp e ON d.dkey = e.edept AND d.dname = 'eng'`,
		`SELECT e.ekey FROM dept d LEFT JOIN emp e ON d.dkey = e.edept AND e.sal > d.dkey`,
	} {
		if _, err := CompileSQL(testCatalog(), sql); err == nil {
			t.Errorf("CompileSQL(%q) should fail", sql)
		}
	}
}

// sharedNameCatalog: a(k, x) and b(k, x), the same column names in both.
// a.x ascends with a.k and b.x descends with b.k.
func sharedNameCatalog() *catalog.Catalog {
	cat := catalog.New()
	for _, name := range []string{"a", "b"} {
		rel := schema.NewRelation(name, schema.New(
			schema.Column{Name: "k", Type: sqlval.KindInt},
			schema.Column{Name: "x", Type: sqlval.KindInt},
		))
		for i := int64(0); i < 10; i++ {
			x := i
			if name == "b" {
				x = 100 - i
			}
			rel.Append(schema.Row{sqlval.Int(i % 5), sqlval.Int(x)})
		}
		cat.AddRelation(rel)
	}
	return cat
}

// TestQualifierSurvivesAggregation: GROUP BY a.k binds a's k when b's k is
// joined too, and a.k above the aggregation still names it.
func TestQualifierSurvivesAggregation(t *testing.T) {
	op, err := CompileSQL(sharedNameCatalog(), `SELECT a.k, COUNT(*), SUM(b.x) FROM a, b WHERE a.k = b.k GROUP BY a.k ORDER BY a.k`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.RunBatch(exec.NewCtx(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(rows))
	}
	for i, r := range rows {
		// Key k pairs a's two rows with b's two: 4 rows, b.x 100-k and 95-k.
		if r[0].AsInt() != int64(i) || r[1].AsInt() != 4 || r[2].AsInt() != 2*(195-2*int64(i)) {
			t.Errorf("group %d = %v, want (%d, 4, %d)", i, r, i, 2*(195-2*int64(i)))
		}
	}
}

// TestQualifierSurvivesProjection: ORDER BY b.x sorts on b's x even when
// only a's x is selected, under the same name.
func TestQualifierSurvivesProjection(t *testing.T) {
	op, err := CompileSQL(sharedNameCatalog(), `SELECT a.x FROM a, b WHERE a.k = b.k ORDER BY b.x LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.RunBatch(exec.NewCtx(), op)
	if err != nil {
		t.Fatal(err)
	}
	// The smallest b.x are 91 and 92 (b.k = 4, 3), each joined with a's two
	// rows of that key: a.x in {4, 9} and then {3, 8}.
	got := make([]int64, len(rows))
	for i, r := range rows {
		got[i] = r[0].AsInt()
	}
	if len(got) != 4 {
		t.Fatalf("a.x = %v, want 4 rows", got)
	}
	slices.Sort(got[:2])
	slices.Sort(got[2:])
	if !slices.Equal(got, []int64{4, 9, 3, 8}) {
		t.Fatalf("a.x = %v, want {4, 9} then {3, 8}", got)
	}
}

func TestCrossJoin(t *testing.T) {
	rows := runSQL(t, "SELECT 1 FROM dept, bonus")
	if len(rows) != 100 {
		t.Fatalf("cross join rows = %d, want 100", len(rows))
	}
}

func TestGroupByAggregates(t *testing.T) {
	rows := runSQL(t, `SELECT edept, COUNT(*) AS cnt, SUM(sal) AS total, AVG(sal) AS mean
		FROM emp GROUP BY edept ORDER BY edept`)
	if len(rows) != 5 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r[1].AsInt() != 12 {
			t.Errorf("group %v count = %v", r[0], r[1])
		}
	}
}

func TestScalarAggregate(t *testing.T) {
	rows := runSQL(t, "SELECT COUNT(*), MAX(sal) FROM emp WHERE edept = 2")
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].AsInt() != 12 {
		t.Errorf("count = %v", rows[0][0])
	}
}

func TestHaving(t *testing.T) {
	rows := runSQL(t, `SELECT edept, SUM(sal) AS total FROM emp
		GROUP BY edept HAVING SUM(sal) > 4500 ORDER BY total DESC`)
	for _, r := range rows {
		if r[1].AsFloat() <= 4500 {
			t.Errorf("having violated: %v", r)
		}
	}
	if len(rows) == 0 || len(rows) == 5 {
		t.Errorf("having should filter some groups, kept %d", len(rows))
	}
	// Descending order.
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].AsFloat() < rows[i][1].AsFloat() {
			t.Error("order by total desc violated")
		}
	}
}

func TestOrderByLimit(t *testing.T) {
	rows := runSQL(t, "SELECT ekey, sal FROM emp ORDER BY sal DESC, ekey ASC LIMIT 4")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][1].AsInt() != 800 {
		t.Errorf("top salary = %v", rows[0][1])
	}
}

func TestInList(t *testing.T) {
	rows := runSQL(t, "SELECT ekey FROM emp WHERE edept IN (1, 3)")
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
}

func TestBetweenAndDate(t *testing.T) {
	rows := runSQL(t, "SELECT ekey FROM emp WHERE hired BETWEEN DATE '1994-10-01' AND DATE '1995-12-31'")
	if len(rows) == 0 || len(rows) == 60 {
		t.Errorf("date range kept %d rows", len(rows))
	}
}

func TestExistsSubquery(t *testing.T) {
	rows := runSQL(t, `SELECT ekey FROM emp WHERE EXISTS (
		SELECT 1 FROM bonus WHERE bonus.bemp = emp.ekey)`)
	// bonus.bemp = 0,3,...,57: 20 values, all < 60.
	if len(rows) != 20 {
		t.Fatalf("exists rows = %d, want 20", len(rows))
	}
}

func TestNotExistsSubquery(t *testing.T) {
	rows := runSQL(t, `SELECT ekey FROM emp WHERE NOT EXISTS (
		SELECT 1 FROM bonus WHERE bonus.bemp = emp.ekey)`)
	if len(rows) != 40 {
		t.Fatalf("not exists rows = %d, want 40", len(rows))
	}
}

func TestInSubquery(t *testing.T) {
	rows := runSQL(t, "SELECT ekey FROM emp WHERE ekey IN (SELECT bemp FROM bonus WHERE bkey < 5)")
	if len(rows) != 5 {
		t.Fatalf("in-subquery rows = %d, want 5", len(rows))
	}
	rows = runSQL(t, "SELECT ekey FROM emp WHERE ekey NOT IN (SELECT bemp FROM bonus)")
	if len(rows) != 40 {
		t.Fatalf("not-in rows = %d, want 40", len(rows))
	}
}

func TestCaseExpression(t *testing.T) {
	rows := runSQL(t, `SELECT CASE WHEN sal >= 400 THEN 'high' ELSE 'low' END AS band, COUNT(*)
		FROM emp GROUP BY band ORDER BY band`)
	if len(rows) != 2 {
		t.Fatalf("bands = %d", len(rows))
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		"SELECT x FROM ghost",
		"SELECT ghostcol FROM emp",
		"SELECT ekey FROM emp, emp WHERE 1 = 1",
		"SELECT ekey FROM emp WHERE EXISTS (SELECT 1 FROM bonus)",           // no correlation
		"SELECT ekey FROM emp WHERE ekey IN (SELECT bkey, bemp FROM bonus)", // two columns
		"SELECT ekey FROM emp LEFT JOIN bonus ON ekey > bemp",               // non-equi left join
		"SELECT ekey FROM emp WHERE sal > (SELECT 1 FROM bonus)",            // scalar subquery unsupported
	}
	for _, sql := range cases {
		if _, err := CompileSQL(testCatalog(), sql); err == nil {
			t.Errorf("CompileSQL(%q) should fail", sql)
		}
	}
}

func TestAggregateInOrderByOnly(t *testing.T) {
	rows := runSQL(t, "SELECT edept FROM emp GROUP BY edept ORDER BY COUNT(*) DESC, edept")
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestGroupByExpression(t *testing.T) {
	rows := runSQL(t, "SELECT sal / 100, COUNT(*) FROM emp GROUP BY sal / 100")
	if len(rows) != 9 {
		t.Fatalf("groups = %d, want 9", len(rows))
	}
}

func TestSelectDistinct(t *testing.T) {
	rows := runSQL(t, "SELECT DISTINCT edept FROM emp")
	if len(rows) != 5 {
		t.Fatalf("distinct depts = %d, want 5", len(rows))
	}
	rows = runSQL(t, "SELECT DISTINCT edept, sal FROM emp ORDER BY edept, sal")
	seen := map[string]bool{}
	for _, r := range rows {
		k := r[0].String() + "|" + r[1].String()
		if seen[k] {
			t.Fatalf("duplicate %s survived DISTINCT", k)
		}
		seen[k] = true
	}
	// 60 emps, (edept, sal) = (i%5, 100*(i%9)): distinct pairs = lcm cycle of 45.
	if len(rows) != 45 {
		t.Errorf("distinct pairs = %d, want 45", len(rows))
	}
}

func TestSelectDistinctWithOrderBy(t *testing.T) {
	rows := runSQL(t, "SELECT DISTINCT sal FROM emp ORDER BY sal DESC LIMIT 3")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].AsInt() != 800 || rows[1][0].AsInt() != 700 {
		t.Errorf("distinct+order = %v", rows)
	}
}

func TestScalarFunctionsInSQL(t *testing.T) {
	rows := runSQL(t, "SELECT UPPER(dname) FROM dept WHERE dkey = 0")
	if len(rows) != 1 || rows[0][0].AsString() != "ENG" {
		t.Fatalf("UPPER = %v", rows)
	}
	rows = runSQL(t, "SELECT YEAR(hired), COUNT(*) FROM emp GROUP BY YEAR(hired) ORDER BY YEAR(hired)")
	if len(rows) < 2 {
		t.Fatalf("year groups = %d", len(rows))
	}
	if rows[0][0].AsInt() < 1994 || rows[0][0].AsInt() > 1996 {
		t.Errorf("first year = %v", rows[0][0])
	}
	rows = runSQL(t, "SELECT ekey FROM emp WHERE LENGTH(SUBSTR('abcdef', 1, ekey)) = 3 LIMIT 1")
	if len(rows) != 1 || rows[0][0].AsInt() != 3 {
		t.Errorf("nested funcs = %v", rows)
	}
	if _, err := CompileSQL(testCatalog(), "SELECT NOSUCH(ekey) FROM emp"); err == nil {
		t.Error("unknown function should fail compilation")
	}
}

// hashJoins returns the plan's hash joins, root first.
func hashJoins(op exec.Operator) []*exec.HashJoin {
	var out []*exec.HashJoin
	exec.Walk(op, func(o exec.Operator) {
		if j, ok := o.(*exec.HashJoin); ok {
			out = append(out, j)
		}
	})
	return out
}

// TestJoinsEmitOnlyNamedColumns pins the width rule: a join keeps a child
// column iff something above that join reads its name, * keeps everything in
// FROM order, and a left-outer miss NULL-pads the kept build columns only.
func TestJoinsEmitOnlyNamedColumns(t *testing.T) {
	tp := tpch.Generate(tpch.Config{SF: 0.001, Z: 1, Seed: 1})
	for _, tc := range []struct {
		name, sql string
		want      []string // each hash join's schema, root first
	}{
		{"join3", `SELECT c_mktsegment, COUNT(*) FROM customer, orders, lineitem
			WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_extendedprice > 950 GROUP BY c_mktsegment`,
			[]string{"(customer.c_mktsegment VARCHAR)", "(customer.c_mktsegment VARCHAR, orders.o_orderkey BIGINT)"}},
		{"join2", `SELECT COUNT(*), SUM(l_extendedprice) FROM orders, lineitem
			WHERE o_orderkey = l_orderkey AND o_totalprice > 1050`,
			[]string{"(lineitem.l_extendedprice DOUBLE)"}},
		{"count", `SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey`,
			[]string{"()"}},
	} {
		op, err := CompileSQL(tp, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, j := range hashJoins(op) {
			got = append(got, j.Schema().String())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s join schemas = %q\n want %q", tc.name, got, tc.want)
		}
	}

	op, err := CompileSQL(tp, `SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey`)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, table := range []string{"orders", "lineitem"} {
		for _, c := range tp.MustRelation(table).Sch.Columns {
			want = append(want, c.Name)
		}
	}
	var got []string
	for _, c := range op.Schema().Columns {
		got = append(got, c.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("SELECT * columns = %v\n want the %d of orders then lineitem: %v", got, len(want), want)
	}

	cat := testCatalog()
	cat.MustRelation("dept").Append(schema.Row{sqlval.Int(99), sqlval.String("empty")})
	op, err = CompileSQL(cat, `SELECT d.dname, e.sal FROM dept d LEFT JOIN emp e ON d.dkey = e.edept`)
	if err != nil {
		t.Fatal(err)
	}
	join := hashJoins(op)[0]
	if names := join.Schema().String(); names != "(dept.dname VARCHAR, emp.sal BIGINT)" {
		t.Errorf("left join schema = %s", names)
	}
	for _, exact := range []bool{true, false} {
		ctx := exec.NewCtx()
		if exact {
			ctx.OnGetNext = func(int64) {}
		}
		rows, err := exec.RunBatch(ctx, join)
		if err != nil {
			t.Fatal(err)
		}
		var missed int
		for _, r := range rows {
			if len(r) != 2 {
				t.Fatalf("row width %d, want 2: %v", len(r), r)
			}
			if r[0].AsString() == "empty" {
				missed++
				if !r[1].IsNull() {
					t.Errorf("missed row = %v, want (empty, NULL)", r)
				}
			} else if r[1].IsNull() {
				t.Errorf("matched row %v padded", r)
			}
		}
		if len(rows) != 61 || missed != 1 {
			t.Errorf("rows = %d (want 61), padded = %d (want 1)", len(rows), missed)
		}
	}
}

// buildTables names the tables under each hash join's build child, root
// first ("customer+orders" for a join built on a join).
func buildTables(op exec.Operator) []string {
	var out []string
	for _, j := range hashJoins(op) {
		var tables []string
		exec.Walk(j.Children()[0], func(o exec.Operator) {
			if s, ok := o.(*exec.Scan); ok {
				tables = append(tables, s.Src.StoreName())
			}
		})
		out = append(out, strings.Join(tables, "+"))
	}
	return out
}

// joinRun is what one run of a join tree shows above it: its schema, its
// rows as a sorted multiset, its GetNext calls, and its bounds before and
// after the run.
type joinRun struct {
	schema        string
	rows          []string
	calls         int64
	before, after [3]int64 // LB, UB, UBTight
}

func planBounds(op exec.Operator) [3]int64 {
	b := core.NewBoundsEvaluator(op).Compute()
	return [3]int64{b.LB, b.UB, b.UBTight}
}

func runJoin(t *testing.T, op exec.Operator) joinRun {
	t.Helper()
	r := joinRun{schema: op.Schema().String(), before: planBounds(op)}
	ctx := exec.NewCtx()
	rows, err := exec.RunBatch(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		r.rows = append(r.rows, fmt.Sprint(row))
	}
	slices.Sort(r.rows)
	r.calls, r.after = ctx.Calls(), planBounds(op)
	return r
}

// TestJoinBuildsOnSmallerInput pins the build side the compiler picks for
// the benchmark's joins — the side with the smaller plan-time bound on the
// rows it delivers, ties to the table joined last — as Explain shows it, and
// holds the choice invisible: each compiled join emits the columns, rows,
// GetNext calls and bounds of the same joins built by hand in FROM order,
// each on the table it adds.
func TestJoinBuildsOnSmallerInput(t *testing.T) {
	tp := tpch.Generate(tpch.Config{SF: 0.001, Z: 1, Seed: 1})
	b := plan.NewBuilder(tp)
	above := func(col string, v int64) plan.PredFn {
		return func(s *schema.Schema) expr.Expr {
			return expr.Compare(expr.GT, expr.NewCol(s, "", col), expr.Literal(sqlval.Int(v)))
		}
	}
	names := func(cols ...string) plan.Columns {
		out := plan.Columns{}
		for _, c := range cols {
			out[c] = true
		}
		return out
	}
	for _, tc := range []struct {
		name, sql string
		builds    []string // each hash join's build tables, root first
		byHand    func() plan.Node
	}{
		{"join2", `SELECT COUNT(*), SUM(l_extendedprice) FROM orders, lineitem
			WHERE o_orderkey = l_orderkey AND o_totalprice > 1050`,
			[]string{"orders"},
			func() plan.Node {
				return b.ScanFiltered("orders", 1.0/3, above("o_totalprice", 1050)).
					HashJoin(b.Scan("lineitem"), "o_orderkey", "l_orderkey", exec.InnerJoin, names("l_extendedprice"))
			}},
		{"join3", `SELECT c_mktsegment, COUNT(*) FROM customer, orders, lineitem
			WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_extendedprice > 950 GROUP BY c_mktsegment`,
			[]string{"customer+orders", "customer"},
			func() plan.Node {
				return b.Scan("customer").
					HashJoin(b.Scan("orders"), "c_custkey", "o_custkey", exec.InnerJoin, names("c_mktsegment", "o_orderkey", "l_orderkey")).
					HashJoin(b.ScanFiltered("lineitem", 1.0/3, above("l_extendedprice", 950)), "o_orderkey", "l_orderkey", exec.InnerJoin, names("c_mktsegment"))
			}},
		// short's lookup: region's filtered scan is the smaller side, and it
		// is already the one joined last.
		{"lookup", `SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_regionkey = 3`,
			[]string{"region"},
			func() plan.Node {
				return b.Scan("nation").
					HashJoin(b.ScanFiltered("region", 1.0/3, func(s *schema.Schema) expr.Expr {
						return expr.Compare(expr.EQ, expr.NewCol(s, "", "r_regionkey"), expr.Literal(sqlval.Int(3)))
					}), "n_regionkey", "r_regionkey", exec.InnerJoin, names("n_name", "r_name"))
			}},
	} {
		op, err := CompileSQL(tp, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := buildTables(op); !slices.Equal(got, tc.builds) {
			t.Errorf("%s builds on %q, want %q", tc.name, got, tc.builds)
		}
		var marked, builds []string
		for _, line := range strings.Split(exec.Explain(op), "\n") {
			if name, _, ok := strings.Cut(strings.TrimSpace(line), "  ["); ok && strings.HasSuffix(line, " build]") {
				marked = append(marked, name)
			}
		}
		for _, j := range hashJoins(op) {
			builds = append(builds, j.Children()[0].Name())
		}
		if !slices.Equal(marked, builds) {
			t.Errorf("%s: Explain marks %q as build children, want %q", tc.name, marked, builds)
		}
		// Each join runs from a fresh plan: a subtree's counters would
		// otherwise carry into the run of the join above it.
		for i := range tc.builds {
			op, err := CompileSQL(tp, tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			got, want := runJoin(t, hashJoins(op)[i]), runJoin(t, hashJoins(tc.byHand().Op)[i])
			if len(want.rows) == 0 {
				t.Fatalf("%s join %d is empty, so it shows nothing", tc.name, i)
			}
			if got.schema != want.schema {
				t.Errorf("%s join %d: schema %s, in FROM order %s", tc.name, i, got.schema, want.schema)
			}
			if !slices.Equal(got.rows, want.rows) {
				t.Errorf("%s join %d: %d rows differ from the %d in FROM order", tc.name, i, len(got.rows), len(want.rows))
			}
			if got.calls != want.calls || got.before != want.before || got.after != want.after {
				t.Errorf("%s join %d: calls %d, bounds %v then %v; in FROM order calls %d, bounds %v then %v",
					tc.name, i, got.calls, got.before, got.after, want.calls, want.before, want.after)
			}
		}
	}
}

// spilledCatalog returns a catalog serving cat's tables from heap files.
func spilledCatalog(t *testing.T, cat *catalog.Catalog) *catalog.Catalog {
	t.Helper()
	out := catalog.New()
	pool := pager.NewPool(8)
	for _, name := range cat.TableNames() {
		path := filepath.Join(t.TempDir(), name+".heap")
		if err := pager.WriteRelation(path, cat.MustRelation(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := out.AttachHeapFile(path, pool); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// scanSchemas renders each scan's output schema, keyed by table.
func scanSchemas(op exec.Operator) map[string]string {
	out := map[string]string{}
	exec.Walk(op, func(o exec.Operator) {
		if s, ok := o.(*exec.Scan); ok {
			out[s.Src.StoreName()] = s.Schema().String()
		}
	})
	return out
}

// TestPagedScansEmitOnlyNamedColumns pins the width rule one level below the
// joins: a scan of a disk-backed table decodes a column iff the statement
// names it — in any clause, of the statement or of a sub-select — while *
// and in-memory relations keep whole rows; and the answers do not change.
func TestPagedScansEmitOnlyNamedColumns(t *testing.T) {
	mem := testCatalog()
	paged := spilledCatalog(t, mem)
	for _, tc := range []struct {
		sql  string
		want map[string]string // paged scan schemas
	}{
		{"SELECT COUNT(*) FROM emp", map[string]string{"emp": "()"}},
		{"SELECT * FROM dept", map[string]string{"dept": "(dept.dkey BIGINT, dept.dname VARCHAR)"}},
		{"SELECT ekey FROM emp WHERE sal > 300 ORDER BY hired DESC",
			map[string]string{"emp": "(emp.ekey BIGINT, emp.sal BIGINT, emp.hired DATE)"}},
		{"SELECT dname, COUNT(*) FROM dept JOIN emp ON dkey = edept GROUP BY dname HAVING MAX(sal) > 0 ORDER BY dname",
			map[string]string{"dept": "(dept.dkey BIGINT, dept.dname VARCHAR)", "emp": "(emp.edept BIGINT, emp.sal BIGINT)"}},
		// The bug this rides with: the inner table of IN / EXISTS was looked
		// up among in-memory relations only.
		{"SELECT COUNT(*) FROM emp WHERE ekey IN (SELECT bemp FROM bonus WHERE bkey < 10)",
			map[string]string{"emp": "(emp.ekey BIGINT)", "bonus": "(bonus.bkey BIGINT, bonus.bemp BIGINT)"}},
		{"SELECT sal FROM emp WHERE NOT EXISTS (SELECT * FROM bonus WHERE bemp = ekey)",
			map[string]string{"emp": "(emp.ekey BIGINT, emp.sal BIGINT)", "bonus": "(bonus.bemp BIGINT)"}},
	} {
		var results [2][]schema.Row
		for i, cat := range []*catalog.Catalog{mem, paged} {
			op, err := CompileSQL(cat, tc.sql)
			if err != nil {
				t.Fatalf("compile %q: %v", tc.sql, err)
			}
			for table, got := range scanSchemas(op) {
				want := cat.MustStore(table).Schema().String()
				if cat == paged {
					want = tc.want[table]
				}
				if got != want {
					t.Errorf("%q: scan of %s emits %s, want %s", tc.sql, table, got, want)
				}
			}
			if results[i], err = exec.RunBatch(exec.NewCtx(), op); err != nil {
				t.Fatalf("run %q: %v", tc.sql, err)
			}
		}
		if got, want := fmt.Sprint(results[1]), fmt.Sprint(results[0]); got != want {
			t.Errorf("%q: paged rows %s, in-memory %s", tc.sql, got, want)
		}
	}

	op, err := CompileSQL(paged, "SELECT COUNT(*) FROM emp WHERE sal > 300")
	if err != nil {
		t.Fatal(err)
	}
	if out := exec.Explain(op); !strings.Contains(out, "Scan(emp)  [rows=0 done=false est=60 cols=1/4]") {
		t.Errorf("Explain does not show the narrowed scan as Scan(emp) … cols=1/4:\n%s", out)
	}
}
