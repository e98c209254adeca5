package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"

	"sqlprogress/internal/exec"
)

// --- fixtures ---------------------------------------------------------------

func intRel(name string, col string, vals []int64) *schema.Relation {
	rel := schema.NewRelation(name, schema.New(schema.Column{Name: col, Type: sqlval.KindInt}))
	for _, v := range vals {
		rel.Append(schema.Row{sqlval.Int(v)})
	}
	return rel
}

func seq(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// example1Plan builds the paper's Figure 2 pipeline:
// Scan(R1) -> Filter -> INLJoin(index on R2.B). The outer arrival order is
// controlled by order (nil = stored order).
func example1Plan(r1, r2 *schema.Relation, passPred expr.Expr, order []int32, linear bool) (*exec.INLJoin, *exec.Scan) {
	scan := exec.NewScanWithOrder(r1, order)
	var outer exec.Operator = scan
	if passPred != nil {
		outer = exec.NewFilter(scan, passPred)
	}
	j := exec.NewINLJoin(outer, r2, 0, expr.NewCol(outer.Schema(), r1.Name, "a"), exec.InnerJoin)
	j.Linear = linear
	return j, scan
}

// --- pipelines ----------------------------------------------------------------

func TestPipelinesSinglePipeline(t *testing.T) {
	r1 := intRel("r1", "a", seq(10))
	r2 := intRel("r2", "b", seq(10))
	j, scan := example1Plan(r1, r2, nil, nil, false)
	shape, _ := ShapeOf(j)
	ps := Pipelines(shape)
	if len(ps) != 1 {
		t.Fatalf("pipelines = %d, want 1", len(ps))
	}
	if len(ps[0].Drivers) != 1 || ps[0].Drivers[0] != scan.LedgerID() {
		t.Errorf("driver should be the R1 scan, got %v", ps[0].Drivers)
	}
}

func TestPipelinesHashJoin(t *testing.T) {
	r1 := intRel("r1", "a", seq(5))
	r2 := intRel("r2", "b", seq(5))
	build, probe := exec.NewScan(r1), exec.NewScan(r2)
	j := exec.NewHashJoin(build, probe,
		[]expr.Expr{expr.NewCol(build.Schema(), "r1", "a")},
		[]expr.Expr{expr.NewCol(probe.Schema(), "r2", "b")},
		exec.InnerJoin)
	shape, _ := ShapeOf(j)
	ps := Pipelines(shape)
	if len(ps) != 2 {
		t.Fatalf("pipelines = %d, want 2 (probe pipeline + build pipeline)", len(ps))
	}
	// Root pipeline driven by the probe scan; build pipeline by the build scan.
	if ps[0].Drivers[0] != probe.LedgerID() {
		t.Errorf("root pipeline driver = %v, want probe scan", ps[0].Drivers[0])
	}
	if ps[1].Drivers[0] != build.LedgerID() {
		t.Errorf("build pipeline driver = %v, want build scan", ps[1].Drivers[0])
	}
	drivers := DriverNodes(shape)
	if len(drivers) != 2 {
		t.Errorf("DriverNodes = %d, want 2", len(drivers))
	}
}

func TestPipelinesSortIsDriverOfParent(t *testing.T) {
	r := intRel("r", "a", seq(5))
	scan := exec.NewScan(r)
	srt := exec.NewSort(scan, []exec.SortKey{{Expr: expr.NewCol(scan.Schema(), "r", "a")}})
	f := exec.NewFilter(srt, expr.Literal(sqlval.Bool(true)))
	shape, _ := ShapeOf(f)
	ps := Pipelines(shape)
	if len(ps) != 2 {
		t.Fatalf("pipelines = %d, want 2", len(ps))
	}
	if ps[0].Drivers[0] != srt.LedgerID() {
		t.Errorf("parent pipeline driver = %v, want the sort node", ps[0].Drivers[0])
	}
	if ps[1].Drivers[0] != scan.LedgerID() {
		t.Errorf("sort input pipeline driver = %v, want the scan", ps[1].Drivers[0])
	}
}

func TestPipelinesMergeJoinTwoDrivers(t *testing.T) {
	r1 := intRel("r1", "a", seq(5))
	r2 := intRel("r2", "b", seq(5))
	s1, s2 := exec.NewScan(r1), exec.NewScan(r2)
	j := exec.NewMergeJoin(s1, s2,
		[]expr.Expr{expr.NewCol(s1.Schema(), "r1", "a")},
		[]expr.Expr{expr.NewCol(s2.Schema(), "r2", "b")})
	shape, _ := ShapeOf(j)
	ps := Pipelines(shape)
	if len(ps) != 1 {
		t.Fatalf("pipelines = %d, want 1", len(ps))
	}
	if len(ps[0].Drivers) != 2 {
		t.Errorf("merge join pipeline drivers = %d, want 2", len(ps[0].Drivers))
	}
}

func TestPipelinesSingleNodePlan(t *testing.T) {
	r := intRel("r", "a", seq(3))
	scan := exec.NewScan(r)
	shape, led := ShapeOf(scan)
	if shape.Len() != 1 || led.Len() != 1 {
		t.Fatalf("shape/ledger size = %d/%d, want 1/1", shape.Len(), led.Len())
	}
	ps := Pipelines(shape)
	if len(ps) != 1 {
		t.Fatalf("pipelines = %d, want 1", len(ps))
	}
	id := scan.LedgerID()
	if ps[0].Root != id || len(ps[0].Ops) != 1 || ps[0].Ops[0] != id {
		t.Errorf("single-node pipeline = %+v, want root/ops = %d", ps[0], id)
	}
	if len(ps[0].Drivers) != 1 || ps[0].Drivers[0] != id {
		t.Errorf("single-node drivers = %v, want [%d]", ps[0].Drivers, id)
	}
	if got := DriverNodes(shape); len(got) != 1 || got[0] != id {
		t.Errorf("DriverNodes = %v, want [%d]", got, id)
	}
}

func TestPipelinesBushyPlan(t *testing.T) {
	// Bushy: a hash join whose build AND probe sides are themselves hash
	// joins. Each build side is blocking, so the decomposition yields four
	// pipelines with one scan driver each (the two probe scans drive their
	// join pipelines; the two build scans get leaf pipelines).
	mk := func(name string) *exec.Scan { return exec.NewScan(intRel(name, "a", seq(4))) }
	s1, s2, s3, s4 := mk("r1"), mk("r2"), mk("r3"), mk("r4")
	join := func(build, probe *exec.Scan) *exec.HashJoin {
		return exec.NewHashJoin(build, probe,
			[]expr.Expr{expr.NewCol(build.Schema(), "", "a")},
			[]expr.Expr{expr.NewCol(probe.Schema(), "", "a")},
			exec.InnerJoin)
	}
	j1, j2 := join(s1, s2), join(s3, s4)
	top := exec.NewHashJoin(j1, j2,
		[]expr.Expr{expr.NewCol(j1.Schema(), "r1", "a")},
		[]expr.Expr{expr.NewCol(j2.Schema(), "r3", "a")},
		exec.InnerJoin)
	shape, _ := ShapeOf(top)
	ps := Pipelines(shape)
	if len(ps) != 4 {
		t.Fatalf("pipelines = %d, want 4", len(ps))
	}
	// Root pipeline: top join streaming from j2, driven by j2's probe scan.
	if ps[0].Root != top.LedgerID() || len(ps[0].Ops) != 3 {
		t.Errorf("root pipeline = %+v, want {top, j2, s4}", ps[0])
	}
	if len(ps[0].Drivers) != 1 || ps[0].Drivers[0] != s4.LedgerID() {
		t.Errorf("root pipeline driver = %v, want s4", ps[0].Drivers)
	}
	// j1's pipeline driven by its probe scan s2; the build scans s1 and s3
	// drive their own leaf pipelines.
	wantDrivers := []struct {
		pipe   int
		driver *exec.Scan
	}{{1, s2}, {2, s1}, {3, s3}}
	for _, w := range wantDrivers {
		if len(ps[w.pipe].Drivers) != 1 || ps[w.pipe].Drivers[0] != w.driver.LedgerID() {
			t.Errorf("pipeline %d drivers = %v, want [%d]", w.pipe, ps[w.pipe].Drivers, w.driver.LedgerID())
		}
	}
	if got := DriverNodes(shape); len(got) != 4 {
		t.Errorf("DriverNodes = %d, want 4", len(got))
	}
}

// --- bounds --------------------------------------------------------------------

func TestBoundsBracketTotalThroughout(t *testing.T) {
	// Run the Example-1 plan sampling bounds at every call; verify that at
	// every instant LB <= total(Q) <= UB, LB is non-decreasing and UB
	// non-increasing.
	r1vals := seq(50)
	r2vals := make([]int64, 0, 200)
	for i := 0; i < 120; i++ {
		r2vals = append(r2vals, 7) // heavy key
	}
	for i := 0; i < 80; i++ {
		r2vals = append(r2vals, int64(i)) // light keys
	}
	r1 := intRel("r1", "a", r1vals)
	r2 := intRel("r2", "b", r2vals)
	j, _ := example1Plan(r1, r2, nil, nil, false)

	tracker := NewTracker(j)
	ctx := exec.NewCtx()
	var lbs, ubs []int64
	ctx.OnGetNext = func(int64) {
		s := tracker.Capture()
		lbs = append(lbs, s.LB)
		ubs = append(ubs, s.UB)
	}
	if _, err := exec.RunBatch(ctx, j); err != nil {
		t.Fatal(err)
	}
	total := ctx.Calls()
	for i := range lbs {
		if lbs[i] > total {
			t.Fatalf("sample %d: LB %d > total %d", i, lbs[i], total)
		}
		if ubs[i] < total {
			t.Fatalf("sample %d: UB %d < total %d", i, ubs[i], total)
		}
		if i > 0 && lbs[i] < lbs[i-1] {
			t.Fatalf("sample %d: LB decreased %d -> %d", i, lbs[i-1], lbs[i])
		}
		if i > 0 && ubs[i] > ubs[i-1] {
			t.Fatalf("sample %d: UB increased %d -> %d", i, ubs[i-1], ubs[i])
		}
	}
	// At the last counted call, LB has reached the total (every produced row
	// is accounted for); after the run drains EOF marks every node done and
	// the bounds collapse exactly.
	if lbs[len(lbs)-1] != total {
		t.Errorf("final sampled LB = %d, want %d", lbs[len(lbs)-1], total)
	}
	snap := NewBoundsEvaluator(j).Compute()
	if snap.LB != total || snap.UB != total {
		t.Errorf("post-run bounds [%d, %d] != total %d", snap.LB, snap.UB, total)
	}
}

func TestBoundsScanLeafAnchorsLB(t *testing.T) {
	r1 := intRel("r1", "a", seq(100))
	r2 := intRel("r2", "b", seq(100))
	j, _ := example1Plan(r1, r2, nil, nil, false)
	snap := NewBoundsEvaluator(j).Compute()
	// Before execution: LB at least the outer scan cardinality.
	if snap.LB < 100 {
		t.Errorf("initial LB = %d, want >= 100", snap.LB)
	}
}

func TestBoundsLinearJoinTightensUB(t *testing.T) {
	r1 := intRel("r1", "a", seq(100))
	// Inner relation heavily skewed: max fan-out 1000, so the fan-out bound
	// is loose and linearity is what tightens the UB.
	heavy := make([]int64, 1000)
	for i := range heavy {
		heavy[i] = 5
	}
	r2 := intRel("r2", "b", heavy)
	jNonLin, _ := example1Plan(r1, r2, nil, nil, false)
	jLin, _ := example1Plan(r1, r2, nil, nil, true)
	nl := NewBoundsEvaluator(jNonLin).Compute()
	lin := NewBoundsEvaluator(jLin).Compute()
	if lin.UB > nl.UB {
		t.Errorf("linear UB %d should not exceed non-linear UB %d", lin.UB, nl.UB)
	}
	// Non-linear: scan 100 + join 100*1000. Linear: scan 100 + max(100,1000).
	if nl.UB != 100100 {
		t.Errorf("non-linear UB = %d, want 100100", nl.UB)
	}
	if lin.UB != 1100 {
		t.Errorf("linear UB = %d, want 1100", lin.UB)
	}
}

func TestBoundsNLJoinRescannedInner(t *testing.T) {
	r1 := intRel("r1", "a", seq(10))
	r2 := intRel("r2", "b", seq(8))
	s1, s2 := exec.NewScan(r1), exec.NewScan(r2)
	j := exec.NewNLJoin(s1, s2, expr.Compare(expr.EQ, expr.Col{Index: 0}, expr.Col{Index: 1}))

	tracker := NewTracker(j)
	ctx := exec.NewCtx()
	var violations int
	ctx.OnGetNext = func(int64) {
		s := tracker.Capture()
		if s.LB > s.UB {
			violations++
		}
	}
	if _, err := exec.RunBatch(ctx, j); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Errorf("%d samples with LB > UB", violations)
	}
	total := ctx.Calls()
	// 10 outer + 80 inner (rescanned) + 8 matches = 98.
	if total != 98 {
		t.Errorf("total = %d, want 98", total)
	}
	snap := NewBoundsEvaluator(j).Compute()
	if snap.LB > total || snap.UB < total {
		t.Errorf("final bounds [%d,%d] do not bracket %d", snap.LB, snap.UB, total)
	}
}

func TestScannedLeafCardinality(t *testing.T) {
	r1 := intRel("r1", "a", seq(100))
	r2 := intRel("r2", "b", seq(50))
	// Hash join: both leaves scanned.
	b, p := exec.NewScan(r1), exec.NewScan(r2)
	hj := exec.NewHashJoin(b, p,
		[]expr.Expr{expr.NewCol(b.Schema(), "r1", "a")},
		[]expr.Expr{expr.NewCol(p.Schema(), "r2", "b")}, exec.InnerJoin)
	if got := ScannedLeafCardinality(hj); got != 150 {
		t.Errorf("hash join leaf card = %d, want 150", got)
	}
	// INL join: only the outer leaf is a counted scan.
	j, _ := example1Plan(r1, r2, nil, nil, false)
	if got := ScannedLeafCardinality(j); got != 100 {
		t.Errorf("INL leaf card = %d, want 100", got)
	}
	// NL join: rescanned inner leaf excluded.
	s1, s2 := exec.NewScan(r1), exec.NewScan(r2)
	nl := exec.NewNLJoin(s1, s2, nil)
	if got := ScannedLeafCardinality(nl); got != 100 {
		t.Errorf("NL leaf card = %d, want 100", got)
	}
	// Merge join: it stops at the shorter input's EOF, so neither streamed
	// leaf is promised in full; a leaf drained by a blocking Sort is.
	mergeOf := func(l, r exec.Operator) *exec.MergeJoin {
		return exec.NewMergeJoin(l, r,
			[]expr.Expr{expr.NewCol(l.Schema(), "r1", "a")},
			[]expr.Expr{expr.NewCol(r.Schema(), "r2", "b")})
	}
	if got := ScannedLeafCardinality(mergeOf(exec.NewScan(r1), exec.NewScan(r2))); got != 0 {
		t.Errorf("merge join leaf card = %d, want 0", got)
	}
	sorted := func(rel *schema.Relation, col string) exec.Operator {
		sc := exec.NewScan(rel)
		return exec.NewSort(sc, []exec.SortKey{{Expr: expr.NewCol(sc.Schema(), rel.Name, col)}})
	}
	if got := ScannedLeafCardinality(mergeOf(sorted(r1, "a"), sorted(r2, "b"))); got != 150 {
		t.Errorf("merge join over sorts leaf card = %d, want 150", got)
	}
	// LIMIT: the Top abandons its streaming chain, so the leaf beneath it
	// drops out whether the cap reaches it (plain scan) or not (filtered);
	// a hash join's build side is still drained in full. With no leaf left
	// mu is total(Q) itself.
	top := exec.NewTop(exec.NewScan(r1), 5)
	if got := ScannedLeafCardinality(top); got != 0 {
		t.Errorf("LIMIT over scan leaf card = %d, want 0", got)
	}
	sc := exec.NewScan(r1)
	filtered := exec.NewTop(exec.NewFilter(sc, expr.Compare(expr.GE, expr.NewCol(sc.Schema(), "r1", "a"), expr.Literal(sqlval.Int(10)))), 5)
	if got := ScannedLeafCardinality(filtered); got != 0 {
		t.Errorf("LIMIT over filtered scan leaf card = %d, want 0", got)
	}
	b, p = exec.NewScan(r1), exec.NewScan(r2)
	topJoin := exec.NewTop(exec.NewHashJoin(b, p,
		[]expr.Expr{expr.NewCol(b.Schema(), "r1", "a")},
		[]expr.Expr{expr.NewCol(p.Schema(), "r2", "b")}, exec.InnerJoin), 5)
	if got := ScannedLeafCardinality(topJoin); got != 100 {
		t.Errorf("LIMIT over hash join leaf card = %d, want 100 (build side only)", got)
	}
	for _, c := range []struct {
		op   exec.Operator
		want float64
	}{
		{top, 10},       // 5 scan + 5 top, no counted leaf
		{filtered, 25},  // 15 scan + 5 filter + 5 top, no counted leaf
		{topJoin, 1.15}, // (100 build + 5 probe + 5 join + 5 top) / 100
	} {
		if _, err := exec.RunBatch(exec.NewCtx(), c.op); err != nil {
			t.Fatal(err)
		}
		if got := Mu(c.op); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: mu = %v, want %v", c.op.Name(), got, c.want)
		}
	}
}

func TestMuMatchesPaperDefinition(t *testing.T) {
	// Example 2's shape: mu = total / leaf cardinality.
	r1 := intRel("r1", "a", seq(1000))
	r2vals := make([]int64, 0, 1000)
	for i := 0; i < 100; i++ {
		r2vals = append(r2vals, 5)
	}
	r2 := intRel("r2", "b", r2vals)
	j, _ := example1Plan(r1, r2, nil, nil, false)
	ctx := exec.NewCtx()
	if _, err := exec.RunBatch(ctx, j); err != nil {
		t.Fatal(err)
	}
	total := ctx.Calls()
	// total = 1000 scan + 100 join outputs (the single matching key 5).
	if total != 1100 {
		t.Fatalf("total = %d, want 1100", total)
	}
	if mu := Mu(j); math.Abs(mu-1.1) > 1e-9 {
		t.Errorf("mu = %g, want 1.1", mu)
	}
}

// --- estimator invariants -------------------------------------------------------

// runMonitored executes the plan under a monitor with all estimators.
// The positions of dne, pmax and safe among runMonitored's estimators.
const monDne, monPmax, monSafe = 0, 2, 3

func runMonitored(t *testing.T, root exec.Operator, every int64) *Monitor {
	t.Helper()
	m := NewMonitor(root, every, Dne{}, ConstrainedDne{}, Pmax{}, Safe{}, Trivial{}, MuSwitch{}, &VarSwitch{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Total() == 0 {
		t.Fatal("no calls performed")
	}
	return m
}

// zipfFrequencies assigns total observations to n keys with frequency of
// key rank r proportional to 1/(r+1)^z — the paper's "zipfian distribution
// on the join attribute". Key 0 is the heaviest.
func zipfFrequencies(n int, total int64, z float64) []int64 {
	weights := make([]float64, n)
	var sum float64
	for r := 0; r < n; r++ {
		weights[r] = 1 / math.Pow(float64(r+1), z)
		sum += weights[r]
	}
	out := make([]int64, n)
	var assigned int64
	for r := 0; r < n; r++ {
		out[r] = int64(weights[r] / sum * float64(total))
		assigned += out[r]
	}
	out[0] += total - assigned // rounding remainder to the heavy key
	return out
}

func zipfFanouts(n int, z float64, r *rand.Rand) []int64 {
	fan := zipfFrequencies(n, int64(n), z)
	r.Shuffle(n, func(i, j int) { fan[i], fan[j] = fan[j], fan[i] })
	return fan
}

// skewJoinPlan builds the paper's Section 5 synthetic experiment: R1(A)
// with unique values, R2(B) zipfian (z=2) over R1's keys, joined by index
// nested loops with R1 as the outer. Because R1.A is a key the join is
// linear, which the builder (here: the fixture) declares. orderKind
// controls the arrival order of R1's tuples.
func skewJoinPlan(n int, orderKind string) (*exec.INLJoin, int64) {
	r := rand.New(rand.NewSource(7))
	r1 := intRel("r1", "a", seq(int64(n)))
	// R2: |R2| = |R1| observations, key i drawn with zipf(z=2) frequency.
	fan := zipfFrequencies(n, int64(n), 2.0)
	var r2vals []int64
	for i, f := range fan {
		for k := int64(0); k < f; k++ {
			r2vals = append(r2vals, int64(i))
		}
	}
	r2 := intRel("r2", "b", r2vals)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	switch orderKind {
	case "skew-first":
		// fan is already descending in key rank: stored order is skew-first.
	case "skew-last":
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	case "random":
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	j, _ := example1Plan(r1, r2, nil, order, true)
	return j, int64(len(r2vals))
}

func TestPmaxNeverUnderestimates(t *testing.T) {
	// Property 4: progress <= pmax, on every sample, for several orders.
	for _, kind := range []string{"skew-first", "skew-last", "random"} {
		j, _ := skewJoinPlan(400, kind)
		m := runMonitored(t, j, 7)
		pts := m.SeriesAt(monPmax)
		if share := OverestimateShare(pts); share < 1 {
			t.Errorf("%s: pmax underestimated on %.1f%% of samples", kind, (1-share)*100)
		}
	}
}

func TestPmaxRatioErrorBoundedByMu(t *testing.T) {
	// Theorem 5: pmax <= mu * progress.
	for _, kind := range []string{"skew-first", "skew-last", "random"} {
		j, _ := skewJoinPlan(300, kind)
		m := runMonitored(t, j, 5)
		mu := m.Mu()
		pts := m.SeriesAt(monPmax)
		if worst := MaxRatioError(pts); worst > mu+1e-9 {
			t.Errorf("%s: pmax ratio error %.4f exceeds mu %.4f", kind, worst, mu)
		}
	}
}

func TestSafeRespectsWorstCaseBound(t *testing.T) {
	// safe's ratio error at each instant is at most sqrt(UB/LB) at that
	// instant.
	j, _ := skewJoinPlan(300, "skew-last")
	tracker := NewTracker(j)
	ctx := exec.NewCtx()
	type obs struct {
		est, bound float64
		calls      int64
	}
	var seen []obs
	ctx.OnGetNext = func(calls int64) {
		if calls%11 != 0 {
			return
		}
		s := tracker.Capture()
		seen = append(seen, obs{est: (Safe{}).Estimate(s), bound: SafeErrorBound(s), calls: calls})
	}
	if _, err := exec.RunBatch(ctx, j); err != nil {
		t.Fatal(err)
	}
	total := float64(ctx.Calls())
	for _, o := range seen {
		actual := float64(o.calls) / total
		if r := RatioError(actual, o.est); r > o.bound*(1+1e-9) {
			t.Errorf("safe ratio error %.4f exceeds bound %.4f at calls=%d", r, o.bound, o.calls)
		}
	}
}

func TestDneAccurateOnUniformData(t *testing.T) {
	// Theorem 3's regime: low variance per-tuple work => dne nearly exact.
	n := int64(2000)
	r1 := intRel("r1", "a", seq(n))
	r2 := intRel("r2", "b", seq(n)) // every tuple joins exactly once
	j, _ := example1Plan(r1, r2, nil, nil, false)
	m := runMonitored(t, j, 13)
	pts := m.SeriesAt(monDne)
	if worst := MaxAbsError(pts); worst > 0.02 {
		t.Errorf("dne max abs error on uniform data = %.4f, want < 0.02", worst)
	}
}

func TestDneUnderestimatesOnSkewFirstOrder(t *testing.T) {
	// Figure 4's regime: heavy tuples first => dne badly underestimates,
	// pmax stays within mu.
	j, _ := skewJoinPlan(500, "skew-first")
	m := runMonitored(t, j, 7)
	dnePts := m.SeriesAt(monDne)
	pmaxPts := m.SeriesAt(monPmax)
	mu := m.Mu()
	if MaxAbsError(dnePts) < 0.2 {
		t.Errorf("expected dne to underestimate badly, max abs err = %.4f", MaxAbsError(dnePts))
	}
	if MaxRatioError(pmaxPts) > mu+1e-9 {
		t.Errorf("pmax ratio error %.4f exceeded mu %.4f", MaxRatioError(pmaxPts), mu)
	}
	if MaxAbsError(pmaxPts) >= MaxAbsError(dnePts) {
		t.Errorf("pmax (%.4f) should beat dne (%.4f) here",
			MaxAbsError(pmaxPts), MaxAbsError(dnePts))
	}
}

func TestSafeBeatsDneOnWorstCaseOrder(t *testing.T) {
	// Figure 5's regime: heavy tuple last => dne overestimates hugely near
	// the end; safe is substantially better.
	j, _ := skewJoinPlan(500, "skew-last")
	m := runMonitored(t, j, 7)
	dnePts := m.SeriesAt(monDne)
	safePts := m.SeriesAt(monSafe)
	if MaxAbsError(safePts) >= MaxAbsError(dnePts) {
		t.Errorf("safe max err %.4f should be below dne %.4f",
			MaxAbsError(safePts), MaxAbsError(dnePts))
	}
}

func TestTrivialEstimator(t *testing.T) {
	if (Trivial{}).Estimate(nil) != 0.5 {
		t.Error("trivial = 0.5")
	}
	if (Trivial{}).Name() != "trivial" {
		t.Error("name")
	}
}

func TestConstrainedDneWithinInterval(t *testing.T) {
	j, _ := skewJoinPlan(300, "skew-last")
	tracker := NewTracker(j)
	ctx := exec.NewCtx()
	bad := 0
	ctx.OnGetNext = func(calls int64) {
		if calls%17 != 0 {
			return
		}
		s := tracker.Capture()
		lo, hi := s.Interval()
		est := (ConstrainedDne{}).Estimate(s)
		if est < lo-1e-12 || est > hi+1e-12 {
			bad++
		}
	}
	if _, err := exec.RunBatch(ctx, j); err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Errorf("%d samples outside the hard interval", bad)
	}
}

func TestIntervalContainsTruth(t *testing.T) {
	j, _ := skewJoinPlan(300, "random")
	m := runMonitored(t, j, 7)
	if err := SeriesOf("random", m).Check(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridMuSwitchTracksPmaxWhenMuSmall(t *testing.T) {
	// Uniform 1:1 join: running mu ~2, within threshold 2.1 => pmax used.
	n := int64(500)
	r1 := intRel("r1", "a", seq(n))
	r2 := intRel("r2", "b", seq(n))
	j, _ := example1Plan(r1, r2, nil, nil, false)
	tracker := NewTracker(j)
	ctx := exec.NewCtx()
	diffs := 0
	ctx.OnGetNext = func(calls int64) {
		if calls%13 != 0 {
			return
		}
		s := tracker.Capture()
		h := (MuSwitch{Threshold: 2.1}).Estimate(s)
		p := (Pmax{}).Estimate(s)
		if math.Abs(h-p) > 1e-12 {
			diffs++
		}
	}
	if _, err := exec.RunBatch(ctx, j); err != nil {
		t.Fatal(err)
	}
	if diffs > 0 {
		t.Errorf("hybrid deviated from pmax on %d samples despite small mu", diffs)
	}
}

func TestVarSwitchStateful(t *testing.T) {
	j, _ := skewJoinPlan(300, "random")
	m := NewMonitor(j, 9, &VarSwitch{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	pts := m.SeriesAt(0)
	if len(pts) == 0 {
		t.Fatal("no samples")
	}
	for _, p := range pts {
		if p.Est < 0 || p.Est > 1 {
			t.Fatalf("estimate %v out of range", p.Est)
		}
	}
}

// --- monitor -------------------------------------------------------------------

func TestMonitorSeriesAndErrors(t *testing.T) {
	r1 := intRel("r1", "a", seq(100))
	r2 := intRel("r2", "b", seq(100))
	j, _ := example1Plan(r1, r2, nil, nil, false)
	m := NewMonitor(j, 10, Dne{}, Pmax{})
	rows, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Errorf("join rows = %d", len(rows))
	}
	if m.Total() != 200 {
		t.Errorf("total = %d, want 200", m.Total())
	}
	if len(m.Samples) != 20 {
		t.Errorf("samples = %d, want 20", len(m.Samples))
	}
	if pts := m.SeriesAt(0); len(pts) != 20 {
		t.Errorf("series points = %d", len(pts))
	}
}

// --- metrics --------------------------------------------------------------------

func TestMetrics(t *testing.T) {
	pts := []Point{
		{Actual: 0.5, Est: 0.25},
		{Actual: 0.2, Est: 0.4},
		{Actual: 0.8, Est: 0.8},
	}
	if got := MaxRatioError(pts); got != 2 {
		t.Errorf("MaxRatioError = %g, want 2", got)
	}
	if got := MaxAbsError(pts); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("MaxAbsError = %g", got)
	}
	if got := AvgAbsError(pts); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("AvgAbsError = %g", got)
	}
	if RatioError(0, 0.5) != math.Inf(1) {
		t.Error("ratio error with zero actual should be +Inf")
	}
	if got := RatioErrorAfter(pts, 0.7); got != 1 {
		t.Errorf("RatioErrorAfter(0.7) = %g", got)
	}
}

// --- predictive orders ------------------------------------------------------------

func TestIsCPredictive(t *testing.T) {
	// Uniform work: every order is predictive.
	uniform := []int64{2, 2, 2, 2, 2, 2}
	if !IsCPredictive(uniform, 1.0001) {
		t.Error("uniform work should be predictive for any c")
	}
	// All the work up front: avg after half = ~2x mu => not 1.5-predictive.
	skewFirst := []int64{10, 10, 1, 1, 1, 1} // mu=4, half-avg=(10+10+1)/3=7
	if IsCPredictive(skewFirst, 1.5) {
		t.Error("front-loaded work should not be 1.5-predictive")
	}
	if !IsCPredictive(skewFirst, 2) {
		t.Error("7 <= 2*4, so it is 2-predictive")
	}
	skewLast := []int64{1, 1, 1, 1, 10, 10} // half-avg=1, mu=4 => 4x below
	if IsCPredictive(skewLast, 2) {
		t.Error("back-loaded work should not be 2-predictive")
	}
	if IsCPredictive(nil, 2) != true {
		t.Error("empty workload trivially predictive")
	}
}

func TestTheorem4AtLeastHalfOrdersAre2Predictive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	workloads := map[string][]int64{
		"uniform":   make([]int64, 200),
		"zipfian":   WorkFromJoinFanouts(zipfFanouts(200, 2.0, r)),
		"one-heavy": append(make([]int64, 199), 10000),
	}
	for i := range workloads["uniform"] {
		workloads["uniform"][i] = 3
	}
	for name, w := range workloads {
		frac := FractionCPredictive(w, 2, 400, 99)
		if frac < 0.5 {
			t.Errorf("%s: fraction of 2-predictive orders = %.3f, want >= 0.5", name, frac)
		}
	}
}

func TestProperty2DneErrorBoundedUnderPredictiveOrder(t *testing.T) {
	// Property 2 exactly: for every 2-predictive order, dne's ratio error
	// at each tuple boundary after half the input is at most 2.
	r := rand.New(rand.NewSource(5))
	work := WorkFromJoinFanouts(zipfFanouts(300, 2.0, r))
	perm := make([]int64, len(work))
	copy(perm, work)
	checked := 0
	for trial := 0; trial < 200; trial++ {
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if !IsCPredictive(perm, 2) {
			continue
		}
		checked++
		if err := DneRatioErrorAfterHalf(perm); err > 2+1e-9 {
			t.Errorf("2-predictive order yielded dne ratio error %.3f after half", err)
		}
	}
	if checked == 0 {
		t.Fatal("no predictive orders sampled")
	}
}

func TestWorkStatsHelpers(t *testing.T) {
	w := []int64{1, 3, 5}
	if MeanWork(w) != 3 {
		t.Errorf("mean = %g", MeanWork(w))
	}
	if MeanWork(nil) != 0 {
		t.Error("empty workload stats should be 0")
	}
	f := WorkFromJoinFanouts([]int64{-1, 0, 4})
	if f[0] != 1 || f[1] != 2 || f[2] != 6 {
		t.Errorf("WorkFromJoinFanouts = %v", f)
	}
}

func TestDemandCapTightensTopSortPlans(t *testing.T) {
	// ORDER BY ... LIMIT: Top(10) over Sort over a 1000-row scan. The
	// demand cap bounds the sort by the rows the top pulls, not by the full
	// input: the sort can emit at most 10 rows.
	rel := intRel("r", "a", seq(1000))
	scan := exec.NewScan(rel)
	srt := exec.NewSort(scan, []exec.SortKey{{Expr: expr.NewCol(scan.Schema(), "r", "a")}})
	top := exec.NewTop(srt, 10)

	capped := NewBoundsEvaluator(top).Compute()
	// Capped: scan 1000 + sort <= 10 + top <= 10 (uncapped, the sort's 1000
	// would make it 2010).
	if capped.UB != 1020 {
		t.Errorf("capped UB = %d, want 1020", capped.UB)
	}

	// The cap must stay sound: run to completion and verify bracketing at
	// every sampled instant.
	tracker := NewTracker(top)
	ctx := exec.NewCtx()
	var worstHi int64
	ctx.OnGetNext = func(int64) {
		s := tracker.Capture()
		if s.UB > worstHi {
			worstHi = s.UB
		}
		if s.LB > s.UB {
			t.Fatal("LB > UB under demand capping")
		}
	}
	if _, err := exec.RunBatch(ctx, top); err != nil {
		t.Fatal(err)
	}
	total := ctx.Calls()
	snap := NewBoundsEvaluator(top).Compute()
	if snap.LB != total || snap.UB != total {
		t.Errorf("final bounds [%d,%d] != total %d", snap.LB, snap.UB, total)
	}
}

func TestDemandCapThroughProjectChain(t *testing.T) {
	// Top -> Project -> Sort: the cap flows through the project onto the
	// sort.
	rel := intRel("r", "a", seq(500))
	scan := exec.NewScan(rel)
	srt := exec.NewSort(scan, []exec.SortKey{{Expr: expr.NewCol(scan.Schema(), "r", "a")}})
	proj := exec.NewProject(srt,
		[]expr.Expr{expr.NewCol(srt.Schema(), "r", "a")},
		[]string{"a"}, []sqlval.Kind{sqlval.KindInt})
	top := exec.NewTop(proj, 7)
	snap := NewBoundsEvaluator(top).Compute()
	// scan 500 + sort 7 + project 7 + top 7.
	if snap.UB != 521 {
		t.Errorf("UB = %d, want 521", snap.UB)
	}
	ctx := exec.NewCtx()
	if _, err := exec.RunBatch(ctx, top); err != nil {
		t.Fatal(err)
	}
	if ctx.Calls() > 521 {
		t.Errorf("actual total %d exceeded the capped UB", ctx.Calls())
	}
}

func TestDemandCapDoesNotCrossFilters(t *testing.T) {
	// Top -> Filter -> Scan: the filter may pull arbitrarily many rows to
	// emit K, so the scan must stay uncapped.
	rel := intRel("r", "a", seq(100))
	scan := exec.NewScan(rel)
	f := exec.NewFilter(scan, expr.Compare(expr.GE, expr.NewCol(scan.Schema(), "r", "a"), expr.Literal(sqlval.Int(95))))
	top := exec.NewTop(f, 3)
	snap := NewBoundsEvaluator(top).Compute()
	// scan stays 100; filter capped to 3 (it emits at most what top pulls);
	// top 3.
	if snap.UB != 106 {
		t.Errorf("UB = %d, want 106", snap.UB)
	}
	ctx := exec.NewCtx()
	if _, err := exec.RunBatch(ctx, top); err != nil {
		t.Fatal(err)
	}
	if ctx.Calls() > 106 {
		t.Errorf("actual total %d exceeded UB", ctx.Calls())
	}
}

func TestExplainBounds(t *testing.T) {
	r1 := intRel("r1", "a", seq(10))
	r2 := intRel("r2", "b", seq(10))
	j, _ := example1Plan(r1, r2, nil, nil, true)
	out := ExplainBounds(j)
	if !regexpMustContain(out, "total bounds: LB=") || !regexpMustContain(out, "Scan(r1)") {
		t.Errorf("explain = %q", out)
	}
	if _, err := exec.RunBatch(exec.NewCtx(), j); err != nil {
		t.Fatal(err)
	}
	out = ExplainBounds(j)
	if !regexpMustContain(out, "done=true") {
		t.Errorf("post-run explain = %q", out)
	}
}

func regexpMustContain(s, sub string) bool { return strings.Contains(s, sub) }

// OverestimateShare returns the fraction of samples where the estimate was
// at or above the truth (pmax should be 1.0 by Property 4).
func OverestimateShare(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	n := 0
	for _, p := range pts {
		if p.Est >= p.Actual-1e-12 {
			n++
		}
	}
	return float64(n) / float64(len(pts))
}

// DriverNodes returns the drivers of every pipeline of the plan, the node
// set over which dne aggregates.
func DriverNodes(shape *PlanShape) []ledger.NodeID {
	var out []ledger.NodeID
	for _, p := range Pipelines(shape) {
		out = append(out, p.Drivers...)
	}
	return out
}

// ScannedLeafCardinality is mu's denominator for the plan at root, as Mu
// computes it: scannedLeaves over one read of the plan's ledger.
func ScannedLeafCardinality(root exec.Operator) int64 {
	shape, led := ShapeOf(root)
	return scannedLeaves(shape, led.SnapshotAll(nil))
}
