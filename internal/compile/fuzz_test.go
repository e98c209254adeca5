package compile

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/coretest"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Randomized cross-validation: generate random data and random queries from
// a constrained grammar, execute them through the full parse->compile->exec
// stack, and compare against an independent naive evaluator written
// directly over the in-memory rows.

type fuzzDB struct {
	cat *catalog.Catalog
	t1  [][3]int64 // a, b, c
	t2  [][2]int64 // d, e
}

func newFuzzDB(r *rand.Rand) *fuzzDB {
	db := &fuzzDB{cat: catalog.New()}
	n1, n2 := 30+r.Intn(120), 20+r.Intn(80)
	rel1 := schema.NewRelation("t1", schema.New(
		schema.Column{Name: "a", Type: sqlval.KindInt},
		schema.Column{Name: "b", Type: sqlval.KindInt},
		schema.Column{Name: "c", Type: sqlval.KindInt},
	))
	for i := 0; i < n1; i++ {
		row := [3]int64{r.Int63n(10), r.Int63n(7), r.Int63n(100)}
		db.t1 = append(db.t1, row)
		rel1.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1]), sqlval.Int(row[2])})
	}
	rel2 := schema.NewRelation("t2", schema.New(
		schema.Column{Name: "d", Type: sqlval.KindInt},
		schema.Column{Name: "e", Type: sqlval.KindInt},
	))
	for i := 0; i < n2; i++ {
		row := [2]int64{r.Int63n(10), r.Int63n(50)}
		db.t2 = append(db.t2, row)
		rel2.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1])})
	}
	db.cat.AddRelation(rel1)
	db.cat.AddRelation(rel2)
	return db
}

// predicate is a simple comparison on one t1 column, shared by the SQL
// text and the naive evaluator.
type predicate struct {
	col int // 0=a 1=b 2=c
	op  string
	val int64
}

func (p predicate) sql() string {
	return fmt.Sprintf("%s %s %d", [3]string{"a", "b", "c"}[p.col], p.op, p.val)
}

func (p predicate) eval(row [3]int64) bool {
	v := row[p.col]
	switch p.op {
	case "=":
		return v == p.val
	case "<>":
		return v != p.val
	case "<":
		return v < p.val
	case "<=":
		return v <= p.val
	case ">":
		return v > p.val
	default:
		return v >= p.val
	}
}

func randPred(r *rand.Rand) predicate {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	col := r.Intn(3)
	max := []int64{10, 7, 100}[col]
	return predicate{col: col, op: ops[r.Intn(len(ops))], val: r.Int63n(max + 2)}
}

func canon(rows [][]int64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprintf("%d", v)
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func resultToInts(t *testing.T, rows []schema.Row) [][]int64 {
	t.Helper()
	out := make([][]int64, len(rows))
	for i, r := range rows {
		vals := make([]int64, len(r))
		for j, v := range r {
			switch v.Kind() {
			case sqlval.KindInt:
				vals[j] = v.AsInt()
			case sqlval.KindFloat:
				vals[j] = int64(v.AsFloat())
			case sqlval.KindNull:
				vals[j] = -999999
			default:
				t.Fatalf("unexpected kind %v", v.Kind())
			}
		}
		out[i] = vals
	}
	return out
}

// runFuzzSQL compiles and runs sql in the exact regime: a no-op hook makes
// every pull one GetNext.
func runFuzzSQL(t *testing.T, db *fuzzDB, sql string) [][]int64 {
	t.Helper()
	op, err := CompileSQL(db.cat, sql)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	ctx := exec.NewCtx()
	ctx.OnGetNext = func(int64) {}
	rows, err := exec.RunBatch(ctx, op)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return resultToInts(t, rows)
}

func compare(t *testing.T, sql string, got, want [][]int64) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s:\n got %d rows, want %d\n got:  %v\n want: %v", sql, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s:\n row %d: got %s, want %s", sql, i, g[i], w[i])
		}
	}
}

// Each family checks one query shape for one seed; the Test wrappers sweep
// fixed seed ranges as deterministic regressions, and FuzzDifferential
// explores arbitrary (seed, family) pairs under the native fuzzer.

func fuzzFilterProjection(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p1, p2 := randPred(r), randPred(r)
	conj := r.Intn(2) == 0
	connector := "AND"
	if !conj {
		connector = "OR"
	}
	sql := fmt.Sprintf("SELECT a, b, c FROM t1 WHERE %s %s %s", p1.sql(), connector, p2.sql())
	var want [][]int64
	for _, row := range db.t1 {
		keep := p1.eval(row) && p2.eval(row)
		if !conj {
			keep = p1.eval(row) || p2.eval(row)
		}
		if keep {
			want = append(want, []int64{row[0], row[1], row[2]})
		}
	}
	compare(t, sql, runFuzzSQL(t, db, sql), want)
}

func fuzzJoin(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r)
	sql := fmt.Sprintf("SELECT a, b, e FROM t1, t2 WHERE a = d AND %s", p.sql())
	var want [][]int64
	for _, r1 := range db.t1 {
		if !p.eval(r1) {
			continue
		}
		for _, r2 := range db.t2 {
			if r1[0] == r2[0] {
				want = append(want, []int64{r1[0], r1[1], r2[1]})
			}
		}
	}
	compare(t, sql, runFuzzSQL(t, db, sql), want)
}

func fuzzGroupByAggregates(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r)
	sql := fmt.Sprintf(
		"SELECT b, COUNT(*), SUM(c), MIN(c), MAX(c) FROM t1 WHERE %s GROUP BY b", p.sql())
	type agg struct{ cnt, sum, min, max int64 }
	groups := map[int64]*agg{}
	for _, row := range db.t1 {
		if !p.eval(row) {
			continue
		}
		g := groups[row[1]]
		if g == nil {
			g = &agg{min: row[2], max: row[2]}
			groups[row[1]] = g
		}
		g.cnt++
		g.sum += row[2]
		if row[2] < g.min {
			g.min = row[2]
		}
		if row[2] > g.max {
			g.max = row[2]
		}
	}
	var want [][]int64
	for b, g := range groups {
		want = append(want, []int64{b, g.cnt, g.sum, g.min, g.max})
	}
	compare(t, sql, runFuzzSQL(t, db, sql), want)
}

func fuzzJoinGroupBy(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	sql := "SELECT b, COUNT(*), SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b"
	type agg struct{ cnt, sum int64 }
	groups := map[int64]*agg{}
	for _, r1 := range db.t1 {
		for _, r2 := range db.t2 {
			if r1[0] != r2[0] {
				continue
			}
			g := groups[r1[1]]
			if g == nil {
				g = &agg{}
				groups[r1[1]] = g
			}
			g.cnt++
			g.sum += r2[1]
		}
	}
	var want [][]int64
	for b, g := range groups {
		want = append(want, []int64{b, g.cnt, g.sum})
	}
	compare(t, sql, runFuzzSQL(t, db, sql), want)
}

func fuzzSemiAntiJoin(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	exists := map[int64]bool{}
	for _, r2 := range db.t2 {
		exists[r2[0]] = true
	}
	for _, neg := range []bool{false, true} {
		kw := "EXISTS"
		if neg {
			kw = "NOT EXISTS"
		}
		sql := fmt.Sprintf(
			"SELECT a, c FROM t1 WHERE %s (SELECT 1 FROM t2 WHERE t2.d = t1.a)", kw)
		var want [][]int64
		for _, r1 := range db.t1 {
			if exists[r1[0]] != neg {
				want = append(want, []int64{r1[0], r1[2]})
			}
		}
		compare(t, sql, runFuzzSQL(t, db, sql), want)
	}
}

// fuzzProgressInvariants runs a fixed query set over seed-random data under
// a monitor and asserts the core invariants hold for arbitrary compiled
// plans, not just the hand-built experiment plans.
func fuzzProgressInvariants(t *testing.T, seed int64) {
	queries := []string{
		"SELECT a, b FROM t1 WHERE c > 50",
		"SELECT b, COUNT(*) FROM t1 GROUP BY b ORDER BY b",
		"SELECT a, e FROM t1, t2 WHERE a = d",
		"SELECT b, SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b ORDER BY b LIMIT 3",
		"SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a) ORDER BY a",
	}
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	for _, sql := range queries {
		op, err := CompileSQL(db.cat, sql)
		if err != nil {
			t.Fatalf("compile %q: %v", sql, err)
		}
		checkProgressInvariants(t, sql, op)
	}
}

// fuzzBatchVsRow runs seed-random compiled queries in bulk pulls and in
// one-row (exact) pulls and asserts they end alike — identical result rows
// (in order), identical total GetNext calls, identical per-node final ledger
// snapshots — and that every ledger read a sampler can take during a bulk
// run is within the paper's bounds (coretest.CheckCreditReads). The query set deliberately mixes native-batch
// shapes (filters, hash joins, aggregates) with row-pull operators (LIMIT,
// anti-join rescans) so both execution regimes are exercised from the SQL
// surface.
func fuzzBatchVsRow(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r)
	queries := []string{
		fmt.Sprintf("SELECT a, b, c FROM t1 WHERE %s", p.sql()),
		"SELECT b, COUNT(*), SUM(c), MIN(c) FROM t1 GROUP BY b ORDER BY b",
		"SELECT a, e FROM t1, t2 WHERE a = d",
		"SELECT b, SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b ORDER BY b LIMIT 3",
		"SELECT a, c FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a)",
	}
	for _, sql := range queries {
		sql := sql
		build := func() exec.Operator {
			op, err := CompileSQL(db.cat, sql)
			if err != nil {
				t.Fatalf("compile %q: %v", sql, err)
			}
			return op
		}
		coretest.CheckBatchRowEquivalence(t, sql, build)
		coretest.CheckCreditReads(t, sql, build)
	}
}

// fuzzPagedVsMem compiles seed-random queries against two catalogs holding
// identical data — one in memory, the other serving every table from a heap
// file through a cold buffer pool — and asserts, via the paged differential,
// identical result rows, total GetNext calls and final ledger snapshots in
// one-row and in bulk pulls, and holds every ledger read a sampler can take
// over either catalog to the paper's bounds (coretest.CheckCreditReads). The
// paged side's scans decode only the columns each statement names while the
// in-memory side's hand out whole rows, so the statements are chosen for how
// they name columns: all of them (SELECT *), none (a bare COUNT(*)), one
// that appears only in ORDER BY, HAVING or a join's ON, the inner side of
// semi and anti subqueries, and a name two joined tables share.
func fuzzPagedVsMem(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r)
	eMax := r.Int63n(52)
	// t3 shares the column name a with t1. It lives in a second pair of
	// catalogs, beside t1 alone: in the first pair it would make every
	// unqualified a ambiguous.
	t3 := schema.NewRelation("t3", schema.New(
		schema.Column{Name: "a", Type: sqlval.KindInt},
		schema.Column{Name: "f", Type: sqlval.KindInt},
	))
	for i, n := 0, 10+r.Intn(40); i < n; i++ {
		t3.Append(schema.Row{sqlval.Int(r.Int63n(10)), sqlval.Int(r.Int63n(7))})
	}
	mem13 := catalog.New()
	mem13.AddRelation(db.cat.MustRelation("t1"))
	mem13.AddRelation(t3)
	paged12, paged13 := spilledCatalog(t, db.cat), spilledCatalog(t, mem13)
	check := func(mem, paged *catalog.Catalog, queries ...string) {
		for _, sql := range queries {
			sql := sql
			build := func(cat *catalog.Catalog) exec.Operator {
				op, err := CompileSQL(cat, sql)
				if err != nil {
					t.Fatalf("compile %q: %v", sql, err)
				}
				return op
			}
			coretest.CheckPagedEquivalence(t, sql, mem, paged, build)
			for _, cat := range []*catalog.Catalog{mem, paged} {
				coretest.CheckCreditReads(t, sql, func() exec.Operator { return build(cat) })
			}
		}
	}
	check(db.cat, paged12,
		fmt.Sprintf("SELECT a, b, c FROM t1 WHERE %s", p.sql()),
		"SELECT b, COUNT(*), SUM(c), MAX(c) FROM t1 GROUP BY b ORDER BY b",
		"SELECT a, e FROM t1, t2 WHERE a = d",
		"SELECT b, SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b ORDER BY b LIMIT 3",
		// Every column, by *.
		fmt.Sprintf("SELECT * FROM t1 WHERE %s", p.sql()),
		"SELECT * FROM t1, t2 WHERE a = d",
		// No column at all: rows of width zero still count.
		"SELECT COUNT(*) FROM t1",
		"SELECT COUNT(*) FROM t1, t2",
		// A column named only in ORDER BY, only in HAVING, only in ON.
		"SELECT a FROM t1 ORDER BY c DESC, b, a",
		"SELECT b, COUNT(*) FROM t1 GROUP BY b HAVING MAX(c) > 60 ORDER BY b",
		"SELECT b, e FROM t1 JOIN t2 ON a = d",
		fmt.Sprintf("SELECT c, e FROM t1 LEFT JOIN t2 ON a = d AND e < %d", eMax),
		// Semi and anti joins: the inner scan keeps its key and predicate
		// columns, whatever its own select list says.
		"SELECT a, c FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a)",
		fmt.Sprintf("SELECT b FROM t1 WHERE NOT EXISTS (SELECT * FROM t2 WHERE t2.d = t1.a AND e < %d)", eMax),
		fmt.Sprintf("SELECT COUNT(*) FROM t1 WHERE a IN (SELECT d FROM t2 WHERE e < %d)", eMax),
		fmt.Sprintf("SELECT c FROM t1 WHERE %s AND b NOT IN (SELECT d FROM t2)", p.sql()),
	)
	check(mem13, paged13,
		"SELECT t1.a, t3.a, c FROM t1, t3 WHERE t1.b = t3.f AND t3.a > 2",
		"SELECT f, MAX(t1.a), MIN(t3.a) FROM t1 JOIN t3 ON b = f GROUP BY f ORDER BY f",
	)
}

// permutedFuzzCatalog builds a second catalog holding exactly db's rows with
// both tables re-appended in a seeded-shuffled order. Statistics are rebuilt
// from the shuffled relations, so everything downstream of the catalog —
// histograms, indexes, compiled plans — derives from the permuted store.
func permutedFuzzCatalog(db *fuzzDB, r *rand.Rand) *catalog.Catalog {
	cat := catalog.New()
	rel1 := schema.NewRelation("t1", schema.New(
		schema.Column{Name: "a", Type: sqlval.KindInt},
		schema.Column{Name: "b", Type: sqlval.KindInt},
		schema.Column{Name: "c", Type: sqlval.KindInt},
	))
	for _, i := range r.Perm(len(db.t1)) {
		row := db.t1[i]
		rel1.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1]), sqlval.Int(row[2])})
	}
	rel2 := schema.NewRelation("t2", schema.New(
		schema.Column{Name: "d", Type: sqlval.KindInt},
		schema.Column{Name: "e", Type: sqlval.KindInt},
	))
	for _, i := range r.Perm(len(db.t2)) {
		row := db.t2[i]
		rel2.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1])})
	}
	cat.AddRelation(rel1)
	cat.AddRelation(rel2)
	return cat
}

// orderMark is the end-of-run observable state the metamorphic family holds
// fixed across permutations: result multiset, total counted GetNext calls,
// the full per-node ledger, and the three headline estimators' final values.
type orderMark struct {
	rows            [][]int64
	calls           int64
	nodes           []ledger.Snapshot
	dne, pmax, safe float64
}

func runOrderMark(t *testing.T, cat *catalog.Catalog, sql string) orderMark {
	t.Helper()
	op, err := CompileSQL(cat, sql)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	tracker := core.NewTracker(op)
	ctx := exec.NewCtx()
	rows, err := exec.RunBatch(ctx, op)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	s := tracker.Capture()
	return orderMark{
		rows:  resultToInts(t, rows),
		calls: ctx.Calls(),
		nodes: exec.EnsureLedger(op).SnapshotAll(nil),
		dne:   (core.Dne{}).Estimate(s),
		pmax:  (core.Pmax{}).Estimate(s),
		safe:  (core.Safe{}).Estimate(s),
	}
}

// fuzzOrderInvariance is the metamorphic order-invariance family: permuting
// the stored row order of both base tables must leave every end-of-run
// observable of an order-insensitive plan unchanged — the result multiset,
// the total counted GetNext calls, the final per-node ledger, and the final
// dne/pmax/safe estimates. The query set avoids LIMIT (whose work depends on
// which rows arrive first); ORDER BY is fine because results are compared as
// multisets and Sort consumes its input fully either way.
func fuzzOrderInvariance(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	perm := permutedFuzzCatalog(db, r)
	p := randPred(r)
	queries := []string{
		fmt.Sprintf("SELECT a, b, c FROM t1 WHERE %s", p.sql()),
		"SELECT b, COUNT(*), SUM(c), MIN(c), MAX(c) FROM t1 GROUP BY b",
		"SELECT a, e FROM t1, t2 WHERE a = d",
		"SELECT b, COUNT(*), SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b ORDER BY b",
		"SELECT a, c FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a)",
	}
	for _, sql := range queries {
		base := runOrderMark(t, db.cat, sql)
		shuf := runOrderMark(t, perm, sql)
		compare(t, sql, shuf.rows, base.rows)
		if base.calls != shuf.calls {
			t.Fatalf("%s: total calls changed under permutation: %d vs %d", sql, base.calls, shuf.calls)
		}
		if len(base.nodes) != len(shuf.nodes) {
			t.Fatalf("%s: ledger has %d slots vs %d under permutation", sql, len(base.nodes), len(shuf.nodes))
		}
		for i := range base.nodes {
			if base.nodes[i] != shuf.nodes[i] {
				t.Fatalf("%s: ledger slot %d changed under permutation: %+v vs %+v",
					sql, i, base.nodes[i], shuf.nodes[i])
			}
		}
		if base.dne != shuf.dne || base.pmax != shuf.pmax || base.safe != shuf.safe {
			t.Fatalf("%s: final estimates changed under permutation: dne %v/%v pmax %v/%v safe %v/%v",
				sql, base.dne, shuf.dne, base.pmax, shuf.pmax, base.safe, shuf.safe)
		}
	}
}

// fuzzJoinPrune cross-validates join output pruning (the compiler hands each
// hash join the names read above it): random 2–3-table inner and LEFT JOIN
// statements over tables that share column names (qualified through
// aliases), with a random select list — a subset of the columns, or * — and
// the clauses a per-join rule can get wrong, each reading columns the select
// list then leaves alone: join keys nothing above their join reads (the
// middle key b.y of a chain), a two-table residual predicate, a WHERE
// conjunct on a LEFT-joined table, an ON conjunct bounding the joined table
// alone, a column named only in GROUP BY or only in ORDER BY (its bare name
// may be another table's too), and a correlated EXISTS (SELECT * ...) on an
// outer column.
// Each is checked against a naive evaluator, and metamorphically:
// appending * to the select list turns pruning off without changing the
// plan's shape, so the listed columns (in order, under ORDER BY),
// ctx.Calls() and the final ledger must all be the same.
func fuzzJoinPrune(t *testing.T, seed int64) {
	const null = -999999 // resultToInts' rendering of NULL
	r := rand.New(rand.NewSource(seed))
	type table struct {
		name, alias string
		cols        []string
		max         []int64
		rows        [][]int64
	}
	tables := []*table{
		{name: "p1", alias: "a", cols: []string{"k", "x", "v", "w"}, max: []int64{8, 6, 50, 12}},
		{name: "p2", alias: "b", cols: []string{"k", "y", "v"}, max: []int64{12, 6, 50}},
		{name: "p3", alias: "c", cols: []string{"j", "x", "z"}, max: []int64{8, 9, 50}},
		{name: "p4", alias: "", cols: []string{"q"}, max: []int64{12}},
	}
	cat := catalog.New()
	for _, tb := range tables {
		cols := make([]schema.Column, len(tb.cols))
		for i, c := range tb.cols {
			cols[i] = schema.Column{Name: c, Type: sqlval.KindInt}
		}
		rel := schema.NewRelation(tb.name, schema.New(cols...))
		for n := 5 + r.Intn(60); n > 0; n-- {
			row := make([]int64, len(tb.cols))
			vals := make(schema.Row, len(tb.cols))
			for i := range row {
				row[i] = r.Int63n(tb.max[i])
				vals[i] = sqlval.Int(row[i])
			}
			tb.rows = append(tb.rows, row)
			rel.Append(vals)
		}
		cat.AddRelation(rel)
	}

	// FROM: p1 a, then p2 b on a.k = b.k, then sometimes p3 c on a.x = c.j
	// or b.y = c.j; each join inner or left, its ON sometimes also bounding
	// a column of the joined table. names holds the qualified columns in
	// FROM order, wide the reference join over them. Draws added after the
	// corpus seeds were checked in come from extra, so each seed keeps the
	// statement shape it was chosen for.
	extra := rand.New(rand.NewSource(^seed))
	joined := tables[:2+r.Intn(2)]
	var names []string
	var outerCols []int // the last column of each LEFT-joined table
	for _, c := range joined[0].cols {
		names = append(names, "a."+c)
	}
	wide := joined[0].rows
	from := "p1 a"
	var joinConds, keys []string
	allInner := true
	for _, tb := range joined[1:] {
		left := "a.k"
		if tb.name == "p3" {
			left = []string{"a.x", "b.y"}[r.Intn(2)]
		}
		leftIdx := slices.Index(names, left)
		right := tb.alias + "." + tb.cols[0]
		keys = append(keys, left, right)
		cond := left + " = " + right
		onCol, onBound := -1, int64(0)
		if extra.Intn(2) == 0 {
			// Under a LEFT JOIN a row this rejects matches nothing.
			onCol = 1 + extra.Intn(len(tb.cols)-1)
			onBound = extra.Int63n(tb.max[onCol])
			cond += fmt.Sprintf(" AND %s.%s < %d", tb.alias, tb.cols[onCol], onBound)
		}
		outer := r.Intn(2) == 0
		kind := "JOIN"
		if outer {
			kind, allInner = "LEFT JOIN", false
		}
		from += fmt.Sprintf(" %s %s %s ON %s", kind, tb.name, tb.alias, cond)
		joinConds = append(joinConds, cond)
		var next [][]int64
		for _, w := range wide {
			matched := false
			for _, row := range tb.rows {
				if w[leftIdx] != null && w[leftIdx] == row[0] && (onCol < 0 || row[onCol] < onBound) {
					next = append(next, append(append([]int64{}, w...), row...))
					matched = true
				}
			}
			if !matched && outer {
				pad := append([]int64{}, w...)
				for range tb.cols {
					pad = append(pad, null)
				}
				next = append(next, pad)
			}
		}
		wide = next
		for _, c := range tb.cols {
			names = append(names, tb.alias+"."+c)
		}
		if outer {
			outerCols = append(outerCols, len(names)-1)
		}
	}
	var where []string
	if allInner && r.Intn(2) == 0 {
		// The same joins, comma style.
		from = "p1 a, p2 b"
		if len(joined) == 3 {
			from += ", p3 c"
		}
		where = joinConds
	}
	if r.Intn(2) == 0 {
		bound := r.Int63n(50)
		where = append(where, fmt.Sprintf("a.v < %d", bound))
		var kept [][]int64
		for _, w := range wide {
			if w[2] < bound {
				kept = append(kept, w)
			}
		}
		wide = kept
	}
	filter := func(keep func(w []int64) bool) {
		var kept [][]int64
		for _, w := range wide {
			if keep(w) {
				kept = append(kept, w)
			}
		}
		wide = kept
	}
	// hidden holds the columns a clause other than the select list reads; the
	// select list leaves them alone, so only the per-join rule keeps them.
	hidden := map[string]bool{}
	// free returns the columns not hidden, in random order.
	free := func() []int {
		var out []int
		for _, c := range r.Perm(len(names)) {
			if !hidden[names[c]] {
				out = append(out, c)
			}
		}
		return out
	}
	if r.Intn(3) == 0 {
		// Correlated EXISTS on a.w: the * ranges over p4 alone.
		where = append(where, "EXISTS (SELECT * FROM p4 WHERE p4.q = a.w)")
		exists := map[int64]bool{}
		for _, row := range tables[3].rows {
			exists[row[0]] = true
		}
		filter(func(w []int64) bool { return exists[w[3]] })
		hidden["a.w"] = true
	}
	if r.Intn(2) == 0 {
		// No join key is read above its own join, but in a chain joined on
		// b.y the bottom join must still emit b.y for the top one.
		for _, k := range keys {
			hidden[k] = true
		}
	}
	if r.Intn(3) == 0 {
		// A two-table residual predicate, evaluated above the top join.
		cand := free()
		l := cand[0]
		if i := slices.IndexFunc(cand, func(c int) bool { return names[c][0] != names[l][0] }); i > 0 {
			rc := cand[i]
			where = append(where, names[l]+" < "+names[rc])
			filter(func(w []int64) bool { return w[l] != null && w[rc] != null && w[l] < w[rc] })
			hidden[names[l]], hidden[names[rc]] = true, true
		}
	}
	const (
		star = iota
		groupBy
		orderBy
		plain
	)
	variant := r.Intn(4)
	g := -1 // the column only GROUP BY or ORDER BY names
	if variant == groupBy || variant == orderBy {
		// Any column, a name other tables share included: GROUP BY and
		// ORDER BY must bind the qualified one, above the projection too.
		if cand := free(); len(cand) == 0 {
			variant = plain
		} else {
			g = cand[0]
			hidden[names[g]] = true
		}
	}
	if len(outerCols) > 0 && r.Intn(2) == 0 {
		// A WHERE conjunct on a LEFT-joined table filters above its join,
		// NULL-padded rows included; only that filter reads the column.
		o := outerCols[r.Intn(len(outerCols))]
		bound := r.Int63n(50)
		where = append(where, fmt.Sprintf("%s < %d", names[o], bound))
		filter(func(w []int64) bool { return w[o] != null && w[o] < bound })
		hidden[names[o]] = true
	}
	tail := " FROM " + from
	if len(where) > 0 {
		tail += " WHERE " + strings.Join(where, " AND ")
	}

	run := func(sql string) ([][]int64, int64, []ledger.Snapshot) {
		op, err := CompileSQL(cat, sql)
		if err != nil {
			t.Fatalf("compile %q: %v", sql, err)
		}
		ctx := exec.NewCtx()
		rows, err := exec.RunBatch(ctx, op)
		if err != nil {
			t.Fatalf("run %q: %v", sql, err)
		}
		return resultToInts(t, rows), ctx.Calls(), exec.EnsureLedger(op).SnapshotAll(nil)
	}

	switch variant {
	case star:
		sql := "SELECT *" + tail
		got, _, _ := run(sql)
		compare(t, sql, got, wide)
		return
	case groupBy:
		sql := "SELECT COUNT(*)" + tail + " GROUP BY " + names[g]
		counts := map[int64]int64{}
		for _, w := range wide {
			counts[w[g]]++
		}
		var want [][]int64
		for _, n := range counts {
			want = append(want, []int64{n})
		}
		got, _, _ := run(sql)
		compare(t, sql, got, want)
		compare(t, sql, runFuzzSQL(t, &fuzzDB{cat: cat}, sql), want)
		return
	}
	selectable := free()
	if len(selectable) == 0 {
		// Other clauses read every column: there is no strict subset to
		// select, so check the rows under SELECT *.
		sql := "SELECT *" + tail
		got, _, _ := run(sql)
		compare(t, sql, got, wide)
		return
	}
	n := 1
	if len(selectable) > 1 {
		n += r.Intn(len(selectable) - 1) // a strict subset
	}
	picked := selectable[:n]
	list := make([]string, len(picked))
	want := make([][]int64, len(wide))
	for i, c := range picked {
		list[i] = names[c]
		for j, w := range wide {
			want[j] = append(want[j], w[c])
		}
	}
	order := ""
	if variant == orderBy {
		order = " ORDER BY " + names[g]
	}
	sql := "SELECT " + strings.Join(list, ", ") + tail + order
	got, calls, led := run(sql)
	compare(t, sql, got, want)
	// Row engine too: its emit goes through the same routine.
	compare(t, sql, runFuzzSQL(t, &fuzzDB{cat: cat}, sql), want)

	starSQL := "SELECT " + strings.Join(list, ", ") + ", *" + tail + order
	starRows, starCalls, starLed := run(starSQL)
	if variant == orderBy {
		prev := int64(null)
		for _, row := range starRows {
			if v := row[n+g]; v != null {
				if v < prev {
					t.Fatalf("%s: not sorted on %s: %d after %d", starSQL, names[g], v, prev)
				}
				prev = v
			}
		}
	}
	for i := range starRows {
		starRows[i] = starRows[i][:n]
	}
	compare(t, starSQL, starRows, want)
	if variant == orderBy && !slices.EqualFunc(got, starRows, slices.Equal[[]int64]) {
		// A stable sort of the same input: the same sequence.
		t.Fatalf("%s: pruned order differs from unpruned\n pruned:   %v\n unpruned: %v", sql, got, starRows)
	}
	if calls != starCalls {
		t.Fatalf("%s: %d calls pruned, %d unpruned", sql, calls, starCalls)
	}
	if !slices.Equal(led, starLed) {
		t.Fatalf("%s: final ledger differs\n pruned:   %+v\n unpruned: %+v", sql, led, starLed)
	}
}

// fuzzJoinSwap holds the compiler's build-side choice to the data, not to
// FROM order: a two-table inner join, comma style or JOIN ... ON, with a
// bound sometimes pushed into either scan, is compiled in both FROM orders.
// Both must build on the table whose scan can deliver fewer rows — the table
// named last on a tie, so there the two orders build on different tables —
// and give the naive evaluator's rows, hook-free and one row per pull, with
// SELECT *'s columns in each statement's FROM order. Both orders must make
// the same ctx.Calls() in every run and, unless tied, leave the same final
// ledger.
func fuzzJoinSwap(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	type table struct {
		name  string
		cols  []string
		rows  [][]int64
		bound int64 // rows with cols[1] < bound survive the scan
	}
	tabs := [2]*table{{name: "s1", cols: []string{"k", "x"}}, {name: "s2", cols: []string{"k", "y"}}}
	sizes := [2]int{1 + r.Intn(40), 0}
	sizes[1] = sizes[0]
	if r.Intn(4) != 0 {
		sizes[1] = 1 + r.Intn(40)
	}
	cat := catalog.New()
	conds := []string{"s1.k = s2.k"}
	for i, tb := range tabs {
		rel := schema.NewRelation(tb.name, schema.New(
			schema.Column{Name: tb.cols[0], Type: sqlval.KindInt},
			schema.Column{Name: tb.cols[1], Type: sqlval.KindInt},
		))
		for n := sizes[i]; n > 0; n-- {
			row := []int64{r.Int63n(8), r.Int63n(50)}
			tb.rows = append(tb.rows, row)
			rel.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1])})
		}
		cat.AddRelation(rel)
		tb.bound = 50
		if r.Intn(2) == 0 {
			tb.bound = r.Int63n(50)
			conds = append(conds, fmt.Sprintf("%s.%s < %d", tb.name, tb.cols[1], tb.bound))
		}
	}
	names := []string{"s1.k", "s1.x", "s2.k", "s2.y"}
	picked := []int{0, 1, 2, 3}
	list := "*"
	if r.Intn(2) == 0 {
		picked = r.Perm(4)[:1+r.Intn(4)]
		var cols []string
		for _, c := range picked {
			cols = append(cols, names[c])
		}
		list = strings.Join(cols, ", ")
	}
	var want [][]int64
	for _, a := range tabs[0].rows {
		for _, b := range tabs[1].rows {
			if a[0] == b[0] && a[1] < tabs[0].bound && b[1] < tabs[1].bound {
				wide := []int64{a[0], a[1], b[0], b[1]}
				row := make([]int64, len(picked))
				for i, c := range picked {
					row[i] = wide[c]
				}
				want = append(want, row)
			}
		}
	}
	joinOn := r.Intn(2) == 0

	var calls []int64
	var leds [2][]ledger.Snapshot
	for order := range 2 {
		first, second := tabs[order], tabs[1-order]
		var sql string
		if joinOn {
			sql = fmt.Sprintf("SELECT %s FROM %s JOIN %s ON %s", list, first.name, second.name, conds[0])
			if len(conds) > 1 {
				sql += " WHERE " + strings.Join(conds[1:], " AND ")
			}
		} else {
			sql = fmt.Sprintf("SELECT %s FROM %s, %s WHERE %s", list, first.name, second.name, strings.Join(conds, " AND "))
		}
		builds := second.name
		if sizes[order] < sizes[1-order] {
			builds = first.name
		}
		for _, exact := range []bool{false, true} {
			op, err := CompileSQL(cat, sql)
			if err != nil {
				t.Fatalf("compile %q: %v", sql, err)
			}
			if got := buildTables(op); len(got) != 1 || got[0] != builds {
				t.Fatalf("%s (%d and %d rows): builds on %q, want %s", sql, sizes[order], sizes[1-order], got, builds)
			}
			ctx := exec.NewCtx()
			if exact {
				ctx.OnGetNext = func(int64) {}
			}
			rows, err := exec.RunBatch(ctx, op)
			if err != nil {
				t.Fatalf("run %q: %v", sql, err)
			}
			got := resultToInts(t, rows)
			if list == "*" {
				var cols []string
				for _, c := range op.Schema().Columns {
					cols = append(cols, c.QualifiedName())
				}
				fromOrder := []string{first.name + "." + first.cols[0], first.name + "." + first.cols[1],
					second.name + "." + second.cols[0], second.name + "." + second.cols[1]}
				if !slices.Equal(cols, fromOrder) {
					t.Fatalf("%s: columns %v, want FROM order %v", sql, cols, fromOrder)
				}
				if order == 1 {
					for _, row := range got {
						row[0], row[1], row[2], row[3] = row[2], row[3], row[0], row[1]
					}
				}
			}
			compare(t, fmt.Sprintf("%s (exact=%v)", sql, exact), got, want)
			calls = append(calls, ctx.Calls())
			if !exact {
				leds[order] = exec.EnsureLedger(op).SnapshotAll(nil)
			}
		}
	}
	if slices.Min(calls) != slices.Max(calls) {
		t.Fatalf("%s ⋈ %s: calls %v differ between FROM orders or regimes", tabs[0].name, tabs[1].name, calls)
	}
	if sizes[0] != sizes[1] && !slices.Equal(leds[0], leds[1]) {
		t.Fatalf("%s ⋈ %s (%d and %d rows): final ledger differs between FROM orders\n %+v\n %+v",
			tabs[0].name, tabs[1].name, sizes[0], sizes[1], leds[0], leds[1])
	}
}

// runMonitored executes op under Monitor.Run with dne/pmax/safe sampled as
// densely as the pull size allows: every call at every = 1, where the run
// pulls one row at a time, or at the credit instants of 16-row pulls when
// batch is set (every = 16) — and returns the finished monitor.
func runMonitored(t *testing.T, op exec.Operator, batch bool) (*core.Monitor, []schema.Row) {
	t.Helper()
	every := int64(1)
	if batch {
		every = 16
	}
	mon := core.NewMonitor(op, every, core.Dne{}, core.Pmax{}, core.Safe{})
	rows, err := mon.Run()
	if err != nil {
		t.Fatal(err)
	}
	return mon, rows
}

// fuzzLimit puts LIMIT k over every filter and join shape the compiler
// emits — pushed-down predicates, hash/left/cross joins, a residual filter,
// semi/anti joins, DISTINCT, and the blocking shapes (GROUP BY, HAVING,
// ORDER BY) — with k from 0 to past the result size. A LIMIT abandons
// whatever streams beneath it at a data-dependent point, which is where a
// static lower bound goes wrong: each query runs monitored at every call and
// at the credit instants of 16-row pulls, and both recorded series must pass
// core.Series.Check. The rows returned must be
// min(k, n) of the unlimited query's n, and under ORDER BY c their c values
// the first of the sorted column, in order.
func fuzzLimit(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r).sql()
	shapes := []string{
		"SELECT a, c FROM t1 WHERE " + p,
		"SELECT a, e FROM t1, t2 WHERE a = d AND " + p,
		"SELECT a, e FROM t1 LEFT JOIN t2 ON a = d WHERE " + p,
		"SELECT a, e FROM t1, t2 WHERE " + p,
		"SELECT a, e FROM t1, t2 WHERE a = d AND b < e AND " + p,
		"SELECT a, c FROM t1 WHERE " + p + " AND EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a)",
		"SELECT a, c FROM t1 WHERE " + p + " AND NOT EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a)",
		"SELECT DISTINCT b FROM t1 WHERE " + p,
		"SELECT b, COUNT(*) FROM t1 WHERE " + p + " GROUP BY b",
		"SELECT b, COUNT(*) FROM t1 WHERE " + p + " GROUP BY b HAVING COUNT(*) > 2",
		"SELECT a, c FROM t1 WHERE " + p + " ORDER BY c",
		"SELECT a, c FROM t1 WHERE " + p + " ORDER BY c DESC",
	}
	for _, shape := range shapes {
		fullRows := runFuzzSQL(t, db, shape)
		full := canon(fullRows)
		// Under ORDER BY c the limited result is not any k rows: its c values
		// are the first k of the sorted column, in that order.
		var sortedC []int64
		if strings.Contains(shape, "ORDER BY c") {
			for _, row := range fullRows {
				sortedC = append(sortedC, row[1])
			}
			slices.Sort(sortedC)
			if strings.HasSuffix(shape, "DESC") {
				slices.Reverse(sortedC)
			}
		}
		k := []int{0, 1, 2 + r.Intn(8), len(full) + 1}[r.Intn(4)]
		sql := fmt.Sprintf("%s LIMIT %d", shape, k)
		for _, batch := range []bool{false, true} {
			op, err := CompileSQL(db.cat, sql)
			if err != nil {
				t.Fatalf("compile %q: %v", sql, err)
			}
			mon, rows := runMonitored(t, op, batch)
			if want := min(k, len(full)); len(rows) != want {
				t.Fatalf("%s (batch=%v): %d rows, want %d", sql, batch, len(rows), want)
			}
			got := resultToInts(t, rows)
			for _, row := range canon(got) {
				if _, ok := slices.BinarySearch(full, row); !ok {
					t.Fatalf("%s (batch=%v): row %s is not in the unlimited result", sql, batch, row)
				}
			}
			if sortedC != nil {
				for i, row := range got {
					if row[1] != sortedC[i] {
						t.Fatalf("%s (batch=%v): row %d has c = %d, the sorted column has %d there", sql, batch, i, row[1], sortedC[i])
					}
				}
			}
			if mon.Total() == 0 {
				continue // LIMIT 0 over a streaming plan: nothing ran, nothing to bound
			}
			label := fmt.Sprintf("%s (batch=%v)", sql, batch)
			if err := core.SeriesOf(label, mon).Check(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fuzzFamilies dispatches a fuzz input's kind byte to one query family, by
// position: a checked-in input under testdata/fuzz/FuzzDifferential names its
// family (seed-<family> or <family>-<case>), and TestFuzzCorpusKindsMatchNames
// holds its kind byte to that family's position here. Removing a family
// means remapping those bytes.
var fuzzFamilies = []struct {
	name string
	run  func(*testing.T, int64)
}{
	{"filter-projection", fuzzFilterProjection},
	{"join", fuzzJoin},
	{"group-by-aggregates", fuzzGroupByAggregates},
	{"join-group-by", fuzzJoinGroupBy},
	{"semi-anti-join", fuzzSemiAntiJoin},
	{"progress-invariants", fuzzProgressInvariants},
	{"batch-vs-row", fuzzBatchVsRow},
	{"paged-vs-mem", fuzzPagedVsMem},
	{"order-invariance", fuzzOrderInvariance},
	{"join-prune", fuzzJoinPrune},
	{"limit", fuzzLimit},
	{"join-swap", fuzzJoinSwap},
}

// FuzzDifferential is the native-fuzzing entry point over all twelve
// differential families: the fuzzer explores (seed, family) pairs, every
// one of which must produce results identical to the naive evaluator (and
// clean progress invariants for the invariant families). The checked-in
// corpus under testdata/fuzz/FuzzDifferential seeds one input per family.
func FuzzDifferential(f *testing.F) {
	for kind := range fuzzFamilies {
		f.Add(int64(kind*100), byte(kind))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind byte) {
		fuzzFamilies[int(kind)%len(fuzzFamilies)].run(t, seed)
	})
}

// TestFuzzCorpusKindsMatchNames reads every checked-in FuzzDifferential
// input and requires its kind byte to dispatch to the family its file name
// gives: the longest family name that is the name (less a "seed-" prefix)
// or a "-"-separated prefix of it.
func TestFuzzCorpusKindsMatchNames(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDifferential")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no inputs under %s", dir)
	}
	for _, file := range files {
		name := strings.TrimPrefix(file.Name(), "seed-")
		want := ""
		for _, fam := range fuzzFamilies {
			if (name == fam.name || strings.HasPrefix(name, fam.name+"-")) && len(fam.name) > len(want) {
				want = fam.name
			}
		}
		if want == "" {
			t.Errorf("%s: names no family", file.Name())
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, file.Name()))
		if err != nil {
			t.Fatal(err)
		}
		kind, err := fuzzKind(string(data))
		if err != nil {
			t.Fatalf("%s: %v", file.Name(), err)
		}
		if kind >= len(fuzzFamilies) || fuzzFamilies[kind].name != want {
			got := "nothing"
			if kind < len(fuzzFamilies) {
				got = fuzzFamilies[kind].name
			}
			t.Errorf("%s: kind byte %d runs %s, want %s", file.Name(), kind, got, want)
		}
	}
}

// fuzzKind reads the kind byte of a FuzzDifferential corpus file: the
// "go test fuzz v1" header, an int64 seed line, and a byte('...') line.
func fuzzKind(file string) (int, error) {
	lines := strings.Split(strings.TrimSpace(file), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "int64(") {
		return 0, fmt.Errorf("not a (int64, byte) fuzz input: %q", file)
	}
	lit, pre := strings.CutPrefix(lines[2], "byte('")
	lit, suf := strings.CutSuffix(lit, "')")
	if !pre || !suf {
		return 0, fmt.Errorf("no byte literal in %q", lines[2])
	}
	v, _, tail, err := strconv.UnquoteChar(lit, '\'')
	if err != nil || tail != "" || v > 0xff {
		return 0, fmt.Errorf("bad byte literal in %q", lines[2])
	}
	return int(v), nil
}

func TestFuzzFilterProjection(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		fuzzFilterProjection(t, seed)
	}
}

func TestFuzzJoin(t *testing.T) {
	for seed := int64(100); seed < 125; seed++ {
		fuzzJoin(t, seed)
	}
}

func TestFuzzGroupByAggregates(t *testing.T) {
	for seed := int64(200); seed < 225; seed++ {
		fuzzGroupByAggregates(t, seed)
	}
}

func TestFuzzJoinGroupBy(t *testing.T) {
	for seed := int64(300); seed < 320; seed++ {
		fuzzJoinGroupBy(t, seed)
	}
}

func TestFuzzSemiAntiJoin(t *testing.T) {
	for seed := int64(400); seed < 420; seed++ {
		fuzzSemiAntiJoin(t, seed)
	}
}

func TestFuzzProgressInvariantsOnRandomQueries(t *testing.T) {
	for seed := int64(500); seed < 510; seed++ {
		fuzzProgressInvariants(t, seed)
	}
}

func TestFuzzBatchVsRow(t *testing.T) {
	for seed := int64(700); seed < 712; seed++ {
		fuzzBatchVsRow(t, seed)
	}
}

func TestFuzzPagedVsMem(t *testing.T) {
	for seed := int64(800); seed < 812; seed++ {
		fuzzPagedVsMem(t, seed)
	}
}

func TestFuzzOrderInvariance(t *testing.T) {
	for seed := int64(900); seed < 912; seed++ {
		fuzzOrderInvariance(t, seed)
	}
}

func TestFuzzJoinPrune(t *testing.T) {
	for seed := int64(1100); seed < 1160; seed++ {
		fuzzJoinPrune(t, seed)
	}
}

func TestFuzzLimit(t *testing.T) {
	for seed := int64(1200); seed < 1230; seed++ {
		fuzzLimit(t, seed)
	}
}

func TestFuzzJoinSwap(t *testing.T) {
	for seed := int64(1300); seed < 1360; seed++ {
		fuzzJoinSwap(t, seed)
	}
}
