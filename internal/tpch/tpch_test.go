package tpch

import (
	"fmt"
	"testing"

	"sqlprogress/internal/coretest"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
)

// smallConfig keeps tests fast while exercising every query plan.
func smallConfig() Config { return Config{SF: 0.002, Z: 2, Seed: 42} }

func TestGenerateSizesAndConstraints(t *testing.T) {
	cfg := smallConfig()
	cat := Generate(cfg)
	sizes := cfg.Sizes()
	for _, tbl := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders"} {
		if got := cat.Cardinality(tbl); got != sizes[tbl] {
			t.Errorf("%s cardinality = %d, want %d", tbl, got, sizes[tbl])
		}
	}
	// lineitem is 1..7 lines per order around a mean of 4.
	li := cat.Cardinality("lineitem")
	orders := cat.Cardinality("orders")
	if li < orders || li > orders*7 {
		t.Errorf("lineitem = %d for %d orders", li, orders)
	}
	if !cat.IsUnique("orders", "o_orderkey") || !cat.IsUnique("part", "p_partkey") {
		t.Error("key declarations missing")
	}
	if !cat.JoinIsLinear("lineitem", "l_orderkey", "orders", "o_orderkey") {
		t.Error("lineitem-orders join should be linear")
	}
	if len(cat.ForeignKeys()) != 9 {
		t.Errorf("foreign keys = %d, want 9", len(cat.ForeignKeys()))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	ra, _ := a.Relation("orders")
	rb, _ := b.Relation("orders")
	if ra.Cardinality() != rb.Cardinality() {
		t.Fatal("non-deterministic sizes")
	}
	for i := 0; i < int(ra.Cardinality()); i += 97 {
		for c := range ra.Rows[i] {
			if ra.Rows[i][c].String() != rb.Rows[i][c].String() {
				t.Fatalf("row %d col %d differs between runs", i, c)
			}
		}
	}
}

func TestSkewIsApplied(t *testing.T) {
	skewed := Generate(Config{SF: 0.002, Z: 2, Seed: 1})
	uniform := Generate(Config{SF: 0.002, Z: 0, Seed: 1})
	// Compare the top customer's order count between z=2 and z=0.
	so, _ := skewed.Relation("orders")
	uo, _ := uniform.Relation("orders")
	sCounts := map[int64]int{}
	uCounts := map[int64]int{}
	custIdx := so.Sch.MustColIndex("", "o_custkey")
	for _, r := range so.Rows {
		sCounts[r[custIdx].AsInt()]++
	}
	for _, r := range uo.Rows {
		uCounts[r[custIdx].AsInt()]++
	}
	sMax, uMax := 0, 0
	for _, c := range sCounts {
		if c > sMax {
			sMax = c
		}
	}
	for _, c := range uCounts {
		if c > uMax {
			uMax = c
		}
	}
	if sMax <= uMax*5 {
		t.Errorf("z=2 top customer has %d orders vs %d at z=0; expected strong skew", sMax, uMax)
	}
}

func TestAllQueriesExecute(t *testing.T) {
	cat := Generate(smallConfig())
	for _, q := range Queries() {
		q := q
		t.Run(q.Desc, func(t *testing.T) {
			op, err := BuildQuery(cat, q.Num)
			if err != nil {
				t.Fatal(err)
			}
			ctx := exec.NewCtx()
			rows, err := exec.RunBatch(ctx, op)
			if err != nil {
				t.Fatalf("Q%d failed: %v", q.Num, err)
			}
			if ctx.Calls() == 0 {
				t.Fatalf("Q%d performed no work", q.Num)
			}
			// Aggregation queries must produce at least one row on this data.
			if len(rows) == 0 && (q.Num == 1 || q.Num == 6 || q.Num == 14 || q.Num == 17 || q.Num == 19) {
				t.Errorf("Q%d produced no rows", q.Num)
			}
		})
	}
}

func TestBuildQueryUnknown(t *testing.T) {
	cat := Generate(smallConfig())
	if _, err := BuildQuery(cat, 99); err == nil {
		t.Error("unknown query should error")
	}
}

func TestMuValuesInPlausibleRange(t *testing.T) {
	// Table 2's headline: mu is small (mostly 1–2.8) for the suite.
	cat := Generate(Config{SF: 0.004, Z: 2, Seed: 7})
	for _, q := range Queries() {
		op, err := BuildQuery(cat, q.Num)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		mu := core.Mu(op)
		if mu < 1 {
			t.Errorf("Q%d: mu = %.3f < 1 (accounting bug: total below leaf scans)", q.Num, mu)
		}
		if mu > 5 {
			t.Errorf("Q%d: mu = %.3f, implausibly large for this suite", q.Num, mu)
		}
	}
}

func TestQ1ShapeMatchesPaper(t *testing.T) {
	// Figure 3 / Table 2: Q1 has mu ≈ 2 and tiny per-tuple variance, making
	// dne nearly exact.
	cat := Generate(Config{SF: 0.004, Z: 2, Seed: 7})
	op, _ := BuildQuery(cat, 1)
	m := core.NewMonitor(op, 101, core.Dne{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	mu := m.Mu()
	if mu < 1.7 || mu > 2.1 {
		t.Errorf("Q1 mu = %.3f, want ≈1.98", mu)
	}
	pts := m.SeriesAt(0)
	if worst := core.MaxAbsError(pts); worst > 0.05 {
		t.Errorf("Q1 dne max abs error = %.4f, want < 0.05 (paper: ~exact)", worst)
	}
}

func TestQ21PmaxErrorDecays(t *testing.T) {
	// Figure 6: pmax's ratio error drops below ~1.5 after ~30% of the
	// execution and approaches 1.
	cat := Generate(Config{SF: 0.004, Z: 2, Seed: 7})
	op, _ := BuildQuery(cat, 21)
	m := core.NewMonitor(op, 101, core.Pmax{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	pts := m.SeriesAt(0)
	mu := m.Mu()
	early := core.RatioErrorAfter(pts, 0.1)
	mid := core.RatioErrorAfter(pts, 0.5)
	late := core.RatioErrorAfter(pts, 0.9)
	if early > mu+1e-9 {
		t.Errorf("pmax error %.3f exceeds mu %.3f", early, mu)
	}
	if !(late < mid && mid < early) {
		t.Errorf("pmax error should decay: %.3f -> %.3f -> %.3f", early, mid, late)
	}
	if mid > 1.7 {
		t.Errorf("pmax ratio error after 50%% = %.3f, want <= 1.7 (paper: ~1.5 after 30%%)", mid)
	}
	if late > 1.15 {
		t.Errorf("pmax ratio error after 90%% = %.3f, want ≈1", late)
	}
}

func TestProgressInvariantsAllTPCHQueries(t *testing.T) {
	// The paper's guarantees, asserted at sampled instants of every Q1-Q21
	// plan: hard bound bracketing and monotonicity, pmax's Property 4 and
	// Theorem 5, safe's Definition 5 bound.
	cat := Generate(smallConfig())
	for _, q := range Queries() {
		op, err := BuildQuery(cat, q.Num)
		if err != nil {
			t.Fatal(err)
		}
		coretest.CheckProgressInvariants(t, fmt.Sprintf("Q%d", q.Num), op, 37)
	}
}

// BenchmarkGenerateTPCH times Generate at the benchmark's scale, -sf 0.02
// and skew 1: the data generation and the statistics build together, the
// in-process share of progressd's start-up. BenchmarkHistogramGenerator in
// internal/stats times the statistics share alone, table by table.
func BenchmarkGenerateTPCH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(Config{SF: 0.02, Z: 1, Seed: 42})
	}
}
