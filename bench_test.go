package sqlprogress

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/evalmatrix"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/session"
	"sqlprogress/internal/tpch"
)

// BenchmarkPaper regenerates the paper's evaluation, one sub-benchmark per
// sampled artifact (the accuracy matrix's paper cells), and reports its
// headline numbers as custom metrics, so
//
//	go test -bench=Paper
//
// regenerates every figure and table. Absolute wall-clock is the engine's;
// the reported metrics are the paper's quantities (errors are fractions of
// total progress, ratios are ratio errors, mu is the paper's mu).
func BenchmarkPaper(b *testing.B) {
	for _, a := range evalmatrix.PaperArtifacts() {
		b.Run(a.ID, func(b *testing.B) {
			var scored []evalmatrix.Scored
			for i := 0; i < b.N; i++ {
				var err error
				if scored, err = evalmatrix.RunPaper(evalmatrix.DefaultOptions(), a.ID); err != nil {
					b.Fatal(err)
				}
			}
			metrics := a.Report(scored).Metrics
			keys := make([]string, 0, len(metrics))
			for k := range metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				b.ReportMetric(metrics[k], k)
			}
		})
	}
}

// --- engine micro-benchmarks and ablations -----------------------------------------

// synthDB holds the Section 5 pair for overhead measurements, n rows a
// side, with its relations and statistics: built once per benchmark, so an
// iteration builds only its plan and leaves no relation garbage for the
// timed runs to collect.
func synthDB(n int) *DB {
	pair := datagen.NewSkewPair(n, int64(n), 2, 1)
	db := Open()
	db.Catalog().AddRelation(pair.R1)
	db.Catalog().AddRelation(pair.R2)
	db.DeclareUnique("r1", "a")
	return db
}

// synthPlan builds the Section 5 INL plan over synthDB's pair.
func synthPlan(db *DB) exec.Operator {
	b := plan.NewBuilder(db.Catalog())
	return b.Scan("r1").INLJoin("r2", "b", "a", exec.InnerJoin).Op
}

// batchINLJoinAllocBudget is the ceiling on allocs/op for the batch engine
// running synthPlan over synthDB(20 000). The count is deterministic (92
// when the budget was set), so growth past the budget is a real regression
// in the batch engine's allocation discipline: arena, slab storage, the
// probe or result collection. The join's table is built with the plan, outside the run.
const batchINLJoinAllocBudget = 100

// TestBatchINLJoinAllocBudget holds exec.RunBatch over the Section 5 INL
// join to batchINLJoinAllocBudget. Wall-clock is not checked.
func TestBatchINLJoinAllocBudget(t *testing.T) {
	db := synthDB(20_000)
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			op := synthPlan(db)
			b.StartTimer()
			if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
				b.Fatal(err)
			}
		}
	})
	if r.N == 0 {
		t.Fatal("benchmark body failed")
	}
	if got := r.AllocsPerOp(); got > batchINLJoinAllocBudget {
		t.Errorf("batch INL join: %d allocs/op, budget %d", got, batchINLJoinAllocBudget)
	}
}

// monitorRunAllocBudget is the ceiling on allocs/op for Monitor.Run over
// synthPlan(synthDB(20 000)) at every = 100: about four per sample (the
// sample, its estimates and the bounds pass's scratch) on top of the bulk
// run's.
const monitorRunAllocBudget = 1_800

// TestMonitorRunSamplesEveryPeriod holds Monitor.Run to the two halves of
// its contract: with no per-call hook installed it still records a sample
// for (nearly) every period of the run — the credit trigger lands within one
// 100-row pull of each due instant — and stays within monitorRunAllocBudget.
// Wall-clock is not checked.
func TestMonitorRunSamplesEveryPeriod(t *testing.T) {
	const n, every = 20_000, 100
	var samples int
	db := synthDB(n)
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := core.NewMonitor(synthPlan(db), every, core.Dne{}, core.Pmax{}, core.Safe{})
			b.StartTimer()
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
			samples = len(m.Samples)
		}
	})
	if r.N == 0 {
		t.Fatal("benchmark body failed")
	}
	if want := 2*n/every - 1; samples < want {
		t.Errorf("Monitor.Run: %d samples, want >= %d", samples, want)
	}
	if got := r.AllocsPerOp(); got > monitorRunAllocBudget {
		t.Errorf("Monitor.Run: %d allocs/op, budget %d", got, monitorRunAllocBudget)
	}
	t.Logf("%d samples, %d allocs/op", samples, r.AllocsPerOp())
}

// The ceilings on exec.RunBatch over synthHashPlan(60 000): a key–foreign-key
// hash join whose build side is 60 000 rows. Both figures are deterministic
// (257 allocs and 12.0 MB per run when the budget was set; 786 and 26.6 MB
// with the map-based table before it). What they hold is the join table's storage discipline: the build
// buffer sized once from the plan's bound, flat offset/word/row arrays
// instead of maps, no staging copies.
const (
	batchHashJoinAllocBudget = 285
	batchHashJoinBytesBudget = 13_200_000
)

// synthHashPlan is synthPlan's pair joined by hash instead: r1, n unique
// keys, is the build side and r2, n foreign keys, probes it.
func synthHashPlan(n int) exec.Operator {
	pair := datagen.NewSkewPair(n, int64(n), 0, 1)
	db := Open()
	db.Catalog().AddRelation(pair.R1)
	db.Catalog().AddRelation(pair.R2)
	db.DeclareUnique("r1", "a")
	b := plan.NewBuilder(db.Catalog())
	return b.Scan("r2").HashJoin(b.Scan("r1"), "b", "a", exec.InnerJoin).Op
}

// TestBatchHashJoinAllocBudget holds exec.RunBatch over synthHashPlan to
// both budgets. Wall-clock is not checked.
func TestBatchHashJoinAllocBudget(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			op := synthHashPlan(60_000)
			b.StartTimer()
			if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
				b.Fatal(err)
			}
		}
	})
	if r.N == 0 {
		t.Fatal("benchmark body failed")
	}
	if got := r.AllocsPerOp(); got > batchHashJoinAllocBudget {
		t.Errorf("batch hash join: %d allocs/op, budget %d", got, batchHashJoinAllocBudget)
	}
	if got := r.AllocedBytesPerOp(); got > batchHashJoinBytesBudget {
		t.Errorf("batch hash join: %d bytes/op, budget %d", got, batchHashJoinBytesBudget)
	}
}

// The ceilings on exec.RunBatch over join2 and join3 (pagedVsMemClasses[2]
// and [3]) compiled from SQL over TPC-H -sf 0.01 in memory. The compiler
// builds each join on the side that can deliver fewer rows: join2 hashes the
// filtered orders and streams lineitem through it; join3 hashes customer,
// streams orders through it, and hashes that join's output to stream
// lineitem (≈ 60 000 rows) through. Each join emits only the columns read
// above it, so join3's top join's rows are one column wide and its bottom
// join's two. All four figures are deterministic (when the budgets were set:
// join2 292 allocs and 3.66 MB per run, join3 394 allocs and 4.80 MB). 7.15
// and 16.9 MB mean lineitem is the build side again; 26.6 MB for join3 means
// its joins emit every column the statement names again.
var batchCompiledJoinBudgets = []struct {
	class  int // index into pagedVsMemClasses
	allocs int64
	bytes  int64
}{
	{2, 307, 3_850_000},
	{3, 415, 5_050_000},
}

// TestBatchCompiledJoinAllocBudget holds join2 and join3, as the compiler
// plans them, to their budgets. Wall-clock is not checked.
func TestBatchCompiledJoinAllocBudget(t *testing.T) {
	db := OpenTPCH(0.01, 1, 42)
	for _, budget := range batchCompiledJoinBudgets {
		class := pagedVsMemClasses[budget.class]
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				q, err := db.Query(class.sql)
				if err != nil {
					b.Fatal(err)
				}
				op := q.Plan()
				b.StartTimer()
				if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
					b.Fatal(err)
				}
			}
		})
		if r.N == 0 {
			t.Fatalf("compiled %s: benchmark body failed", class.name)
		}
		if got := r.AllocsPerOp(); got > budget.allocs {
			t.Errorf("compiled %s: %d allocs/op, budget %d", class.name, got, budget.allocs)
		}
		if got := r.AllocedBytesPerOp(); got > budget.bytes {
			t.Errorf("compiled %s: %d bytes/op, budget %d", class.name, got, budget.bytes)
		}
	}
}

// shortStatements are the end-to-end benchmark's short classes
// (benchmark/workload.go), one parameterisation each, with the ceiling on
// the bytes exec.RunBatch allocates to run each over TPC-H -sf 0.02 -z 1.
// Every buffer a run allocates is sized from the plan's row bound, so a
// query that returns a handful of rows allocates a few KB. Sized from the
// 1 024-row batch they came to 103, 104, 123, 85 and 154 KB: the result's
// 1 024 headers grown to 3 072 after its first batch, a 256-row arena slab
// per row-building operator and child batches doubled up from zero.
var shortStatements = []struct {
	name, sql string
	bytes     int64
}{
	{"lookup-nation", "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = 7", 16_000},
	{"lookup-supplier", "SELECT s_name, s_acctbal FROM supplier WHERE s_nationkey = 7", 24_000},
	{"lookup-join", "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_regionkey = 2", 24_000},
	{"limit5", "SELECT * FROM lineitem LIMIT 5", 8_000},
	{"smallcount", "SELECT COUNT(*) FROM customer WHERE c_acctbal > 2500", 48_000},
}

// TestBatchShortAllocBudget holds each short statement, as the compiler
// plans it, to its bytes budget: the mean over runs of exec.RunBatch, every
// plan compiled before the first run is measured. A fixed count, because
// testing.Benchmark would stop its timer around each ≈ 50 µs compile and so
// run a 10 µs body for many seconds. Wall-clock is not checked.
func TestBatchShortAllocBudget(t *testing.T) {
	const runs = 200
	db := OpenTPCH(0.02, 1, 42)
	for _, st := range shortStatements {
		ops := make([]exec.Operator, runs)
		for i := range ops {
			q, err := db.Query(st.sql)
			if err != nil {
				t.Fatal(err)
			}
			ops[i] = q.Plan()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, op := range ops {
			if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := int64(after.TotalAlloc-before.TotalAlloc) / runs
		if got > st.bytes {
			t.Errorf("%s: %d bytes/op, budget %d", st.name, got, st.bytes)
		}
		t.Logf("%s: %d bytes/op, %d allocs/op", st.name, got, (after.Mallocs-before.Mallocs)/runs)
	}
}

// BenchmarkShortStatements compiles and runs each short statement: what a
// served short query costs before the session and HTTP layers.
func BenchmarkShortStatements(b *testing.B) {
	db := OpenTPCH(0.02, 1, 42)
	for _, st := range shortStatements {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runStatement(b, db, st.sql)
			}
		})
	}
}

// The ceilings on one short statement served by a session.Manager, submit
// to final event: what it allocates in all (parse, plan, run, monitor,
// frames), and what a finished session keeps on the heap until the registry
// forgets it. Before the executor sized its buffers from the plan's row
// bound a query allocated 127 KB; a finished session kept 2.2 KB.
const (
	shortSessionBytesBudget    = 32_000
	shortSessionRetainedBudget = 4_000
)

// TestBatchShortSessionAllocBudget runs the short statements through a
// session.Manager, one at a time, to both budgets. It lives here, not in
// internal/session, so a -race run of that package does not measure it.
func TestBatchShortSessionAllocBudget(t *testing.T) {
	const queries = 3_000
	db := OpenTPCH(0.02, 1, 42)
	mgr := session.New(db.Catalog(), session.Config{})
	defer mgr.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		sess, err := mgr.Submit(shortStatements[i%len(shortStatements)].sql, session.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ch, unsub := sess.Subscribe()
		var last session.Progress
		for p := range ch {
			last = p
		}
		unsub()
		if st := last.State; !last.Final || st != session.StateFinished {
			t.Fatalf("query %d: state %s, err %v", i, st, sess.Info().Error)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / queries
	retained := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / queries
	if perQuery > shortSessionBytesBudget {
		t.Errorf("short session: %d bytes allocated per query, budget %d", perQuery, shortSessionBytesBudget)
	}
	if retained > shortSessionRetainedBudget {
		t.Errorf("short session: %d bytes retained per finished session, budget %d", retained, shortSessionRetainedBudget)
	}
	t.Logf("%d bytes allocated per query, %d bytes retained per finished session", perQuery, retained)
	runtime.KeepAlive(mgr)
}

// openTPCHLiveHeapBudget is the ceiling on the live heap OpenTPCH(0.02, 1,
// 42) leaves behind: the generated tables, their statistics and the
// catalog. It was 72.5 MB while a sqlval.Value was 32 bytes (lineitem alone
// is 120 279 rows × 15 values); 38.9 MB at 16 bytes.
const openTPCHLiveHeapBudget = 48_000_000

// TestOpenTPCHLiveHeapBudget holds the resident database the daemon serves
// to openTPCHLiveHeapBudget: the HeapAlloc delta around OpenTPCH, each side
// read after a full collection. progressd's RSS follows its live heap.
func TestOpenTPCHLiveHeapBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := OpenTPCH(0.02, 1, 42)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if live > openTPCHLiveHeapBudget {
		t.Errorf("OpenTPCH(0.02, 1, 42) keeps %.1f MB live, budget %.1f MB", float64(live)/1e6, float64(openTPCHLiveHeapBudget)/1e6)
	}
	t.Logf("OpenTPCH(0.02, 1, 42) keeps %.1f MB live", float64(live)/1e6)
	runtime.KeepAlive(db)
}

// The four statement classes the end-to-end benchmark's paged workload is
// built from (benchmark/workload.go), one parameterisation each.
var pagedVsMemClasses = []struct{ name, sql string }{
	{"scanagg", "SELECT l_shipmode, COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE l_extendedprice > 950 GROUP BY l_shipmode"},
	{"filtercount", "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity >= 20 AND l_quantity < 30"},
	{"join2", "SELECT COUNT(*), SUM(l_extendedprice) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_totalprice > 1050"},
	{"join3", "SELECT c_mktsegment, COUNT(*) FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_extendedprice > 950 GROUP BY c_mktsegment"},
}

// spilledTPCH is the paged workload's database: TPC-H at -sf 0.02, every
// table in a heap file behind a 256-frame (2 MiB) pool, read cost 2.
func spilledTPCH(tb testing.TB) *DB {
	tb.Helper()
	db := OpenTPCH(0.02, 1, 42)
	if err := db.SpillToDisk(tb.TempDir(), 256); err != nil {
		tb.Fatal(err)
	}
	for _, t := range db.Tables() {
		if err := db.SetReadCost(t, 2); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// runStatement compiles and runs sql once (compile is microseconds beside a
// lineitem scan, and a served query pays it too).
func runStatement(tb testing.TB, db *DB, sql string) {
	q, err := db.Query(sql)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := q.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPagedVsMem runs each class over the same data in memory and
// through the pager: the gap is what disk-backed storage costs the executor
// — pool accesses, page reads and, most of it, decoding the columns the
// statement reads and stepping over the rest.
func BenchmarkPagedVsMem(b *testing.B) {
	stores := []struct {
		name string
		db   *DB
	}{{"mem", OpenTPCH(0.02, 1, 42)}, {"paged", spilledTPCH(b)}}
	for _, c := range pagedVsMemClasses {
		for _, st := range stores {
			b.Run(c.name+"/"+st.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runStatement(b, st.db, c.sql)
				}
			})
		}
	}
}

// BenchmarkCompiledScanAgg runs the analytic workload's scanagg statement,
// and the same statement without GROUP BY, in memory: the executor's
// aggregate fold over lineitem without a daemon, a session or a monitor.
func BenchmarkCompiledScanAgg(b *testing.B) {
	db := OpenTPCH(0.02, 1, 42)
	for _, st := range []struct{ name, sql string }{
		{"group-by", pagedVsMemClasses[0].sql},
		{"scalar", "SELECT COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE l_extendedprice > 950"},
	} {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runStatement(b, db, st.sql)
			}
		})
	}
}

// The ceilings on one paged statement over spilledTPCH: 120 000-odd
// lineitem rows on ≈ 2 000 pages. A page decodes into one value slab,
// plus one slab for the bytes of the strings it keeps; the cursor reuses
// its row headers from page to page.
//
// filtercount reads two numeric columns of fifteen, so it allocates one
// slab per page and the plan. Decoding all fifteen columns was 72 MB and
// 245 000 allocations; with fresh row headers per page, 4 186 and 7.4 MB.
//
// scanagg also keeps l_shipmode, so it allocates two slabs per page. One
// heap string per kept string value was 124 541 allocations.
const (
	batchPagedScanAllocBudget    = 3_500
	batchPagedScanBytesBudget    = 6_000_000
	batchPagedScanAggAllocBudget = 5_000
	batchPagedScanAggBytesBudget = 9_000_000
)

// TestBatchPagedScanAllocBudget holds paged filtercount, a narrowed scan of
// numbers, to its budgets. Wall-clock is not checked.
func TestBatchPagedScanAllocBudget(t *testing.T) {
	checkPagedAllocBudget(t, pagedVsMemClasses[1], batchPagedScanAllocBudget, batchPagedScanBytesBudget)
}

// TestBatchPagedScanAggAllocBudget holds paged scanagg, a narrowed scan that
// keeps a string column, to its budgets. Wall-clock is not checked.
func TestBatchPagedScanAggAllocBudget(t *testing.T) {
	checkPagedAllocBudget(t, pagedVsMemClasses[0], batchPagedScanAggAllocBudget, batchPagedScanAggBytesBudget)
}

// checkPagedAllocBudget runs one statement class over spilledTPCH and
// holds its allocations and bytes per run to the given ceilings.
func checkPagedAllocBudget(t *testing.T, class struct{ name, sql string }, allocs, bytes int64) {
	t.Helper()
	db := spilledTPCH(t)
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runStatement(b, db, class.sql)
		}
	})
	if r.N == 0 {
		t.Fatal("benchmark body failed")
	}
	if got := r.AllocsPerOp(); got > allocs {
		t.Errorf("paged %s: %d allocs/op, budget %d", class.name, got, allocs)
	}
	if got := r.AllocedBytesPerOp(); got > bytes {
		t.Errorf("paged %s: %d bytes/op, budget %d", class.name, got, bytes)
	}
	t.Logf("paged %s: %d allocs/op, %d bytes/op", class.name, r.AllocsPerOp(), r.AllocedBytesPerOp())
}

// BenchmarkExecINLJoinNoMonitor measures raw executor throughput in bulk
// pulls, the run a user's Query.Run gets: the baseline for the
// monitoring-overhead ablations. Like them it builds each iteration's plan
// and collects the previous runs' garbage with the timer stopped.
func BenchmarkExecINLJoinNoMonitor(b *testing.B) {
	const n = 20_000
	db := synthDB(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		op := synthPlan(db)
		runtime.GC()
		b.StartTimer()
		if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*n), "getnext/op")
}

// BenchmarkMonitorOverhead measures the cost of inline progress monitoring
// at several sampling periods — the ablation for "how often can we afford
// to estimate". The per-sample cost is one incremental bounds pass; the
// period also caps the pull size at min(every, exec.DefaultBatchSize).
func BenchmarkMonitorOverhead(b *testing.B) {
	db := synthDB(20_000)
	for _, every := range []int64{100, 1_000, 10_000} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := core.NewMonitor(synthPlan(db), every, core.Dne{}, core.Pmax{}, core.Safe{})
				runtime.GC()
				b.StartTimer()
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClockMonitorOverhead measures executor throughput under the
// wall-clock sampling rule: the run pays one clock read per credit and one
// capture per period, which should sit within noise of the no-monitor
// baseline at these periods.
func BenchmarkClockMonitorOverhead(b *testing.B) {
	db := synthDB(20_000)
	for _, interval := range []time.Duration{100 * time.Microsecond, time.Millisecond} {
		b.Run(fmt.Sprintf("interval=%s", interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := core.NewAsyncMonitor(synthPlan(db), interval, core.Dne{}, core.Pmax{}, core.Safe{})
				runtime.GC()
				b.StartTimer()
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoundsPass measures one cardinality-bounds computation over a
// deep plan (the per-sample cost driver) on the incremental path every
// sample actually takes: a prebuilt BoundsEvaluator folding in the runtime
// counters. Must report 0 allocs/op.
func BenchmarkBoundsPass(b *testing.B) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	op, err := tpch.BuildQuery(cat, 21)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
		b.Fatal(err)
	}
	ev := core.NewBoundsEvaluator(op)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Compute()
	}
}

// BenchmarkCompileSQL measures SQL front-end latency.
func BenchmarkCompileSQL(b *testing.B) {
	db := OpenTPCH(0.001, 2, 1)
	const sql = `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
		AVG(l_extendedprice) AS avg_price, COUNT(*) AS cnt
		FROM lineitem WHERE l_shipdate <= DATE '1998-09-01'
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinThroughput measures the scan-based join path the paper's
// Section 5.4 favours.
func BenchmarkHashJoinThroughput(b *testing.B) {
	pair := datagen.NewSkewPair(20_000, 20_000, 2, 1)
	db := Open()
	db.Catalog().AddRelation(pair.R1)
	db.Catalog().AddRelation(pair.R2)
	db.DeclareUnique("r1", "a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pb := plan.NewBuilder(db.Catalog())
		op := pb.Scan("r2").HashJoin(pb.Scan("r1"), "b", "a", exec.InnerJoin).Op
		b.StartTimer()
		if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
			b.Fatal(err)
		}
	}
}
