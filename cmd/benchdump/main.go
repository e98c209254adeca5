// Command benchdump runs the key engine benchmarks through
// testing.Benchmark and writes the results as JSON (BENCH_1.json by
// default), so the performance trajectory — bounds-pass cost, monitoring
// overhead, raw executor throughput — is tracked as a checked-in artifact
// from PR to PR rather than reconstructed from CI logs. Session-service
// benchmarks (admission + streaming throughput through internal/session)
// are written separately as BENCH_2.json, ledger and parallel-scan rows as
// BENCH_3.json, the vectorized (batch-at-a-time) engine's row-vs-batch
// comparison as BENCH_4.json, and the paged-storage suite — cold vs warm
// buffer-pool timings plus the estimator errors each regime induces — as
// BENCH_5.json, the whole-plan parallelism suite — partitioned hash-join and
// parallel pre-aggregation speedups vs their serial batch-engine
// counterparts, plus the sub-slot vs flat-ledger snapshot cost — as
// BENCH_6.json, and the estimator accuracy matrix (dataset x stats-health x
// plan-family sweep, one row per cell per estimator) as BENCH_ACC.json.
//
// Unlike the timing artifacts, BENCH_ACC.json is fully deterministic — no
// date, no host facts — so CI can demand byte-identical re-runs.
//
// Usage:
//
//	go run ./cmd/benchdump [-o BENCH_1.json] [-o2 BENCH_2.json] [-o3 BENCH_3.json] [-o4 BENCH_4.json] [-o5 BENCH_5.json] [-o6 BENCH_6.json] [-oacc BENCH_ACC.json]
//	go run ./cmd/benchdump -o acc   # accuracy matrix only (the CI gate's mode)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	sqlprogress "sqlprogress"
	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/coretest"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/evalmatrix"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/experiments"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/session"
	"sqlprogress/internal/sqlval"
	"sqlprogress/internal/tpch"
)

// result is one benchmark's headline numbers.
type result struct {
	Name      string  `json:"name"`
	NsPerOp   float64 `json:"ns_per_op"`
	AllocsOp  int64   `json:"allocs_per_op"`
	BytesOp   int64   `json:"bytes_per_op"`
	N         int     `json:"n"`
	TotalSecs float64 `json:"total_secs"`
	// Speedup is the wall-clock ratio vs the 1-worker row of the same
	// experiment (parallel-scan rows only).
	Speedup float64 `json:"speedup_vs_1_worker,omitempty"`
	// SpeedupVsSerial is the wall-clock ratio vs the serial batch-engine
	// row of the same experiment (parallel join/agg rows only).
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
	// HitRatio is the buffer-pool hit ratio over the measured run
	// (paged-storage rows only).
	HitRatio float64 `json:"hit_ratio,omitempty"`
	// MaxRatioErr is the pmax estimator's max ratio error under this cache
	// regime (paged estimation rows only).
	MaxRatioErr float64 `json:"max_ratio_err,omitempty"`
}

// dump is the file layout.
type dump struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Date      string   `json:"date"`
	Results   []result `json:"results"`
}

func record(name string, out []result, fn func(b *testing.B)) []result {
	r := testing.Benchmark(fn)
	res := result{
		Name:      name,
		NsPerOp:   float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsOp:  r.AllocsPerOp(),
		BytesOp:   r.AllocedBytesPerOp(),
		N:         r.N,
		TotalSecs: r.T.Seconds(),
	}
	fmt.Printf("%-28s %12.1f ns/op %8d B/op %6d allocs/op\n",
		name, res.NsPerOp, res.BytesOp, res.AllocsOp)
	return append(out, res)
}

// synthPlan is the Section 5 INL plan used for overhead measurements
// (mirrors the root bench suite).
func synthPlan(n int) exec.Operator {
	pair := datagen.NewSkewPair(n, int64(n), 2, 1)
	db := sqlprogress.Open()
	db.Catalog().AddRelation(pair.R1)
	db.Catalog().AddRelation(pair.R2)
	db.DeclareUnique("r1", "a")
	b := plan.NewBuilder(db.Catalog())
	return b.Scan("r1").INLJoin("r2", "b", "a", exec.InnerJoin).Op
}

// q21 builds a finished TPC-H Q21 plan for bounds-pass measurements.
func q21() exec.Operator {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	op, err := tpch.BuildQuery(cat, 21)
	if err != nil {
		panic(err)
	}
	if _, err := exec.Run(exec.NewCtx(), op); err != nil {
		panic(err)
	}
	return op
}

// sessionsThroughput measures end-to-end session-service throughput: one
// iteration submits `batch` queries through a Manager bounded at `conc`
// running slots, subscribes to every progress stream, and waits until each
// session has streamed to its final event. It covers compile, admission
// (with queueing when batch > conc), off-thread sampling, estimator
// evaluation, and subscriber fan-out — the whole progressd serving path
// minus HTTP.
func sessionsThroughput(b *testing.B, batch, conc int) {
	cat := sessionCat()
	m := session.New(cat, session.Config{
		MaxConcurrent:  conc,
		MaxQueue:       batch,
		SampleInterval: 200 * time.Microsecond,
	})
	defer m.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chans := make([]<-chan session.Progress, 0, batch)
		unsubs := make([]func(), 0, batch)
		for j := 0; j < batch; j++ {
			s, err := m.Submit("SELECT COUNT(*) FROM supplier", session.SubmitOptions{})
			if err != nil {
				b.Fatal(err)
			}
			ch, unsub := s.Subscribe()
			chans = append(chans, ch)
			unsubs = append(unsubs, unsub)
		}
		for _, ch := range chans {
			for range ch { // drained and closed once the session is terminal
			}
		}
		for _, unsub := range unsubs {
			unsub()
		}
	}
}

var sessionCatMem = struct {
	once sync.Once
	cat  *catalog.Catalog
}{}

func sessionCat() *catalog.Catalog {
	sessionCatMem.once.Do(func() {
		sessionCatMem.cat = tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	})
	return sessionCatMem.cat
}

// chaosSweep runs the seeded chaos corpus once — n fault schedules, each a
// full execution with injected stalls/errors/cancels and every recorded
// sample checked against the estimator invariants — and reports the
// per-schedule cost. It is timed by hand rather than through
// testing.Benchmark, whose auto-scaling would rerun minutes of work for no
// extra signal. Any violation aborts the dump; the error carries the
// replayable seed and schedule.
func chaosSweep(n int) result {
	start := time.Now()
	for seed := int64(1); seed <= int64(n); seed++ {
		if err := coretest.RunChaos(seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	elapsed := time.Since(start)
	res := result{
		Name:      "chaos_sweep_per_schedule",
		NsPerOp:   float64(elapsed.Nanoseconds()) / float64(n),
		N:         n,
		TotalSecs: elapsed.Seconds(),
	}
	fmt.Printf("%-28s %12.1f ns/op %8s %6d schedules\n", res.Name, res.NsPerOp, "", n)
	return res
}

// bigScanRows is the cardinality of the shared heap-file relation behind
// the parallel-scan and paged-cache rows.
const bigScanRows = 40_000

var bigHeapMem struct {
	once sync.Once
	hf   *pager.HeapFile
}

// bigHeap writes the bigscan relation to a heap file once and keeps it
// open for every paged row.
func bigHeap() *pager.HeapFile {
	bigHeapMem.once.Do(func() {
		bigHeapMem.hf = openHeap(datagen.IntRelation("bigscan", "v", datagen.Sequence(bigScanRows)))
	})
	return bigHeapMem.hf
}

var bigAggMem struct {
	once   sync.Once
	hf     *pager.HeapFile
	groups int
}

// bigAgg writes a zipf-keyed variant of the bigscan relation once — the
// aggregation rows' input, whose heavy-key overlap across partitions makes
// the parallel pre-aggregation's merge phase do real work. Returns the heap
// file and the exact number of distinct groups.
func bigAgg() (*pager.HeapFile, int) {
	bigAggMem.once.Do(func() {
		rel := datagen.IntRelation("bigagg", "v", datagen.ZipfValues(100, bigScanRows, 1.2, 7))
		seen := map[int64]bool{}
		for _, row := range rel.Rows {
			seen[row[0].AsInt()] = true
		}
		bigAggMem.groups = len(seen)
		bigAggMem.hf = openHeap(rel)
	})
	return bigAggMem.hf, bigAggMem.groups
}

// openHeap writes rel to a temp heap file and opens it. The temp directory
// is removed immediately after the open — the held descriptor keeps the
// pages readable with no cleanup obligation.
func openHeap(rel *schema.Relation) *pager.HeapFile {
	dir, err := os.MkdirTemp("", "benchdump-heap-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	path := filepath.Join(dir, rel.Name+".heap")
	if err := pager.WriteRelation(path, rel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hf, err := pager.OpenHeapFile(path)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return hf
}

// stallBackend stands in for disk latency: every physical page read
// sleeps before delegating. The pool performs physical reads outside its
// mutex, so stalls of different workers overlap — which is exactly what
// the scaling rows measure. Close is a no-op because the wrapped heap
// file is shared across runs.
type stallBackend struct {
	inner pager.Backend
	delay time.Duration
}

func (s stallBackend) ReadPage(page uint32, buf []byte) error {
	time.Sleep(s.delay)
	return s.inner.ReadPage(page, buf)
}
func (s stallBackend) NumPages() uint32 { return s.inner.NumPages() }
func (s stallBackend) Close() error     { return nil }

// parallelScanPlan builds an Exchange over `workers` page-aligned scan
// partitions of the shared heap file, read through a fresh cold pool
// whose backend stalls pageDelay per physical page read. On any machine
// (even GOMAXPROCS=1) the stalls of different workers overlap, so the
// wall-clock ratio vs the 1-worker row measures how well the exchange +
// disjoint-ledger-slot design actually parallelises an I/O-bound scan.
func parallelScanPlan(hf *pager.HeapFile, workers int, pageDelay time.Duration) exec.Operator {
	pr := pager.NewPagedRelationBackend(hf, pager.NewPool(2*workers+2),
		stallBackend{hf.Backend(), pageDelay})
	parts := make([]exec.Operator, workers)
	for i := range parts {
		s := exec.NewStoreScanPartition(pr, i, workers)
		s.SetEstimatedCard(s.FinalBounds(nil).LB)
		parts[i] = s
	}
	return exec.NewExchange(parts...)
}

// parallelScanRows times full parallel-scan executions at each worker count
// and reports per-run wall time plus speedup vs the 1-worker baseline. Timed
// by hand (like chaosSweep): the runs are sleep-dominated by design, so
// testing.Benchmark's auto-scaling would only add minutes of wall time.
func parallelScanRows(workerCounts []int, runs int, batch bool) []result {
	const pageDelay = time.Millisecond
	name, run := "parallel_scan_workers_%d", exec.Run
	if batch {
		name, run = "parallel_scan_batch_workers_%d", exec.RunBatch
	}
	hf := bigHeap()
	var out []result
	var base float64
	for _, w := range workerCounts {
		var elapsed time.Duration
		for r := 0; r < runs; r++ {
			op := parallelScanPlan(hf, w, pageDelay)
			start := time.Now()
			rows, err := run(exec.NewCtx(), op)
			elapsed += time.Since(start)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if len(rows) != bigScanRows {
				fmt.Fprintf(os.Stderr, "parallel scan at %d workers: got %d rows, want %d\n", w, len(rows), bigScanRows)
				os.Exit(1)
			}
		}
		res := result{
			Name:      fmt.Sprintf(name, w),
			NsPerOp:   float64(elapsed.Nanoseconds()) / float64(runs),
			N:         runs,
			TotalSecs: elapsed.Seconds(),
		}
		if w == 1 {
			base = res.NsPerOp
		} else if base > 0 {
			res.Speedup = base / res.NsPerOp
		}
		fmt.Printf("%-28s %12.1f ns/op %8s %6.2fx vs 1 worker\n",
			res.Name, res.NsPerOp, "", maxF(res.Speedup, 1))
		out = append(out, res)
	}
	return out
}

// pagedCacheRows times the same store scan against a cold and a warm
// buffer pool (real file reads, no injected stall) and folds in the pager
// experiment's estimator errors, so one artifact captures both the raw
// cost of cache misses and what page-weighted accounting does to progress
// estimates in each regime.
func pagedCacheRows(runs int) []result {
	hf := bigHeap()
	var out []result
	for _, regime := range []string{"cold", "warm"} {
		frames := 8
		if regime == "warm" {
			frames = int(hf.DataPages()) + 8
		}
		var elapsed time.Duration
		var hits, misses int64
		for r := 0; r < runs; r++ {
			pool := pager.NewPool(frames)
			pr := pager.NewPagedRelation(hf, pool)
			if regime == "warm" {
				// Pre-fault every page so the measured run never reads.
				if _, err := exec.Run(exec.NewCtx(), exec.NewStoreScan(pr)); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			before := pool.Stats()
			start := time.Now()
			rows, err := exec.Run(exec.NewCtx(), exec.NewStoreScan(pr))
			elapsed += time.Since(start)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if len(rows) != bigScanRows {
				fmt.Fprintf(os.Stderr, "paged %s scan: got %d rows, want %d\n", regime, len(rows), bigScanRows)
				os.Exit(1)
			}
			after := pool.Stats()
			hits += after.Hits - before.Hits
			misses += after.Misses - before.Misses
		}
		res := result{
			Name:      "paged_scan_" + regime,
			NsPerOp:   float64(elapsed.Nanoseconds()) / float64(runs),
			N:         runs,
			TotalSecs: elapsed.Seconds(),
			HitRatio:  float64(hits) / float64(hits+misses),
		}
		fmt.Printf("%-28s %12.1f ns/op %8s %6.3f hit ratio\n", res.Name, res.NsPerOp, "", res.HitRatio)
		out = append(out, res)
	}
	// Estimator rows: the pager experiment at the standard scale, one row
	// per query x cache regime, with pmax's max ratio error as the gated
	// number (dne's is strictly worse in the cold regime).
	exp := experiments.Pager(experiments.Defaults())
	for _, q := range []string{"scan", "hash-join-agg"} {
		for _, regime := range []string{"cold", "warm"} {
			res := result{
				Name:        fmt.Sprintf("pager_est_%s_%s", q, regime),
				N:           1,
				HitRatio:    exp.Metrics[q+"_"+regime+"_hit_ratio"],
				MaxRatioErr: exp.Metrics[q+"_"+regime+"_pmax"],
			}
			fmt.Printf("%-28s %12s %8s %6.3f hit ratio  %.3f pmax ratio\n",
				res.Name, "", "", res.HitRatio, res.MaxRatioErr)
			out = append(out, res)
		}
	}
	return out
}

// stalledStore is a fresh cold-pool paged view of hf whose backend stalls
// pageDelay per physical read — the shared I/O-bound substrate of the
// parallel join/agg rows.
func stalledStore(hf *pager.HeapFile, frames int, pageDelay time.Duration) schema.Store {
	return pager.NewPagedRelationBackend(hf, pager.NewPool(frames),
		stallBackend{hf.Backend(), pageDelay})
}

// parallelJoinAggRows is the BENCH_6 suite: the partitioned hash join and
// the parallel pre-aggregation timed at each worker count against their
// serial batch-engine counterparts over an I/O-bound input (every page read
// of the big side stalls one millisecond through a cold pool, so worker
// stalls overlap exactly as in parallelScanRows — the speedup is a property
// of the partitioned design, not of the host's core count), plus the cost
// the per-worker ledger sub-slots add to a full SnapshotAll. Timed by hand
// for the same reason as parallelScanRows: the runs are sleep-dominated.
func parallelJoinAggRows(runs int) []result {
	const pageDelay = time.Millisecond
	workerCounts := []int{1, 2, 4, 8}
	var out []result

	timeRuns := func(name string, wantRows int, baseNs float64, build func() exec.Operator) result {
		var elapsed time.Duration
		for r := 0; r < runs; r++ {
			op := build()
			start := time.Now()
			rows, err := exec.RunBatch(exec.NewCtx(), op)
			elapsed += time.Since(start)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if len(rows) != wantRows {
				fmt.Fprintf(os.Stderr, "%s: got %d rows, want %d\n", name, len(rows), wantRows)
				os.Exit(1)
			}
		}
		res := result{
			Name:      name,
			NsPerOp:   float64(elapsed.Nanoseconds()) / float64(runs),
			N:         runs,
			TotalSecs: elapsed.Seconds(),
		}
		if baseNs > 0 {
			res.SpeedupVsSerial = baseNs / res.NsPerOp
			fmt.Printf("%-28s %12.1f ns/op %8s %6.2fx vs serial\n",
				res.Name, res.NsPerOp, "", res.SpeedupVsSerial)
		} else {
			fmt.Printf("%-28s %12.1f ns/op\n", res.Name, res.NsPerOp)
		}
		return res
	}

	// Partitioned hash join: a small in-memory dimension (unique keys, a
	// tenth of the probe side — the build drain runs serially on the reader,
	// so an oversized build side would just re-measure Amdahl's law) built
	// against the stalled bigscan probe side; each dimension key matches
	// exactly one probe row.
	const dimRows = bigScanRows / 10
	jhf := bigHeap()
	dim := datagen.IntRelation("dim", "k", datagen.Sequence(dimRows))
	partScans := func(st schema.Store, workers int) []exec.Operator {
		parts := make([]exec.Operator, workers)
		for i := range parts {
			s := exec.NewStoreScanPartition(st, i, workers)
			s.SetEstimatedCard(s.FinalBounds(nil).LB)
			parts[i] = s
		}
		return parts
	}
	serialJoin := timeRuns("phash_join_serial_batch", dimRows, 0, func() exec.Operator {
		probe := exec.NewStoreScan(stalledStore(jhf, 4, pageDelay))
		build := exec.NewScan(dim)
		return exec.NewHashJoin(build, probe,
			[]expr.Expr{expr.NewCol(build.Schema(), "dim", "k")},
			[]expr.Expr{expr.NewCol(probe.Schema(), "bigscan", "v")}, exec.InnerJoin)
	})
	out = append(out, serialJoin)
	for _, w := range workerCounts {
		w := w
		out = append(out, timeRuns(fmt.Sprintf("phash_join_workers_%d", w), dimRows, serialJoin.NsPerOp, func() exec.Operator {
			parts := partScans(stalledStore(jhf, 2*w+2, pageDelay), w)
			build := exec.NewScan(dim)
			return exec.NewParallelHashJoin(build, parts,
				[]expr.Expr{expr.NewCol(build.Schema(), "dim", "k")},
				[]expr.Expr{expr.NewCol(parts[0].Schema(), "bigscan", "v")}, exec.InnerJoin)
		}))
	}

	// Parallel pre-aggregation: COUNT(*) + SUM(v) grouped by the zipf key.
	ahf, groups := bigAgg()
	aggMeta := func(sch *schema.Schema) ([]expr.Expr, []string, []sqlval.Kind, []expr.Agg) {
		v := expr.NewCol(sch, "bigagg", "v")
		return []expr.Expr{v}, []string{"v"}, []sqlval.Kind{sqlval.KindInt},
			[]expr.Agg{{Kind: expr.AggCountStar, Name: "n"}, {Kind: expr.AggSum, Arg: v, Name: "s"}}
	}
	serialAgg := timeRuns("pagg_serial_batch", groups, 0, func() exec.Operator {
		child := exec.NewStoreScan(stalledStore(ahf, 4, pageDelay))
		gb, names, kinds, aggs := aggMeta(child.Schema())
		return exec.NewHashAgg(child, gb, names, kinds, aggs)
	})
	out = append(out, serialAgg)
	for _, w := range workerCounts {
		w := w
		out = append(out, timeRuns(fmt.Sprintf("pagg_workers_%d", w), groups, serialAgg.NsPerOp, func() exec.Operator {
			parts := partScans(stalledStore(ahf, 2*w+2, pageDelay), w)
			gb, names, kinds, aggs := aggMeta(parts[0].Schema())
			return exec.NewParallelHashAgg(parts, gb, names, kinds, aggs)
		}))
	}

	// Sub-slot snapshot cost: SnapshotAll over a 64-node ledger where 8
	// nodes carry 8 worker sub-slots each, vs the same ledger flat — the
	// price the aggregation protocol adds to every sampling pass.
	flat := ledger.New(64)
	sub := ledger.New(64)
	for i := 0; i < 64; i++ {
		flat.Slot(ledger.NodeID(i)).CountCalls(int64(i))
		sub.Slot(ledger.NodeID(i)).CountCalls(int64(i))
	}
	for i := 0; i < 8; i++ {
		sub.EnsureWorkers(ledger.NodeID(i), 8)
		for w := 0; w < 8; w++ {
			sub.WorkerSlot(ledger.NodeID(i), w).CountCalls(int64(w))
		}
	}
	var buf []ledger.Snapshot
	out = record("sample_snapshot_flat_64", out, func(b *testing.B) {
		b.ReportAllocs()
		buf = flat.SnapshotAll(buf[:0])
		for i := 0; i < b.N; i++ {
			buf = flat.SnapshotAll(buf[:0])
		}
	})
	out = record("sample_snapshot_subslot_64x8", out, func(b *testing.B) {
		b.ReportAllocs()
		buf = sub.SnapshotAll(buf[:0])
		for i := 0; i < b.N; i++ {
			buf = sub.SnapshotAll(buf[:0])
		}
	})
	return out
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// accMatrix runs the estimator accuracy matrix at the standard scale and
// writes its artifact, printing the per-cell table as it goes.
func accMatrix(path string) {
	accRows, err := evalmatrix.Run(evalmatrix.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, "accuracy matrix:", err)
		os.Exit(1)
	}
	fmt.Print(evalmatrix.Table(accRows).Render())
	if err := evalmatrix.WriteFile(path, accRows); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func main() {
	out := flag.String("o", "BENCH_1.json", "output path; the literal value \"acc\" runs only the accuracy matrix")
	out2 := flag.String("o2", "BENCH_2.json", "session-service output path")
	out3 := flag.String("o3", "BENCH_3.json", "ledger + parallel-scan output path")
	out4 := flag.String("o4", "BENCH_4.json", "vectorized-engine output path")
	out5 := flag.String("o5", "BENCH_5.json", "paged-storage output path")
	out6 := flag.String("o6", "BENCH_6.json", "parallel join/agg output path")
	outAcc := flag.String("oacc", "BENCH_ACC.json", "accuracy-matrix output path")
	chaosN := flag.Int("chaos", 500, "fault schedules in the chaos sweep (0 = skip)")
	flag.Parse()

	// The accuracy matrix is deterministic and cheap next to the timing
	// suites, so CI runs it alone: `-o acc` short-circuits everything else.
	if *out == "acc" {
		accMatrix(*outAcc)
		return
	}

	var results []result

	op := q21()
	ev := core.NewBoundsEvaluator(op)
	results = record("bounds_pass_incremental", results, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.Compute()
		}
	})

	const rows = 20_000
	results = record("exec_inl_join_no_monitor", results, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := synthPlan(rows)
			b.StartTimer()
			if _, err := exec.Run(exec.NewCtx(), p); err != nil {
				b.Fatal(err)
			}
		}
	})
	results = record("monitor_inline_every_100", results, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := synthPlan(rows)
			m := core.NewMonitor(p, 100, core.Dne{}, core.Pmax{}, core.Safe{})
			b.StartTimer()
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	results = record("async_monitor_100us", results, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := synthPlan(rows)
			m := core.NewAsyncMonitor(p, 100*time.Microsecond, core.Dne{}, core.Pmax{}, core.Safe{})
			b.StartTimer()
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})

	writeDump(*out, results)

	// Session-service benchmarks: the progressd serving path, tracked in
	// its own artifact so serving-layer regressions are visible apart from
	// engine-level ones.
	var sessResults []result
	sessResults = record("sessions_throughput_32x_conc8", sessResults, func(b *testing.B) {
		sessionsThroughput(b, 32, 8)
	})
	sessResults = record("sessions_throughput_32x_conc32", sessResults, func(b *testing.B) {
		sessionsThroughput(b, 32, 32)
	})
	if *chaosN > 0 {
		sessResults = append(sessResults, chaosSweep(*chaosN))
	}
	writeDump(*out2, sessResults)

	// Ledger benchmarks: the progress-ledger PR's artifact. First the
	// sample-path cost — reading the flat ledger (what estimators and the
	// serving layer do now) vs walking the operator tree summing per-node
	// counters (how the seed sampled before the ledger existed) — then the
	// parallel-scan scaling rows that the disjoint-slot design unlocks.
	var ledResults []result
	led := exec.EnsureLedger(op) // q21 plan from above, already executed
	ledResults = record("sample_ledger_total_returned", ledResults, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += led.TotalReturned()
		}
	})
	var buf []ledger.Snapshot
	ledResults = record("sample_ledger_snapshot_all", ledResults, func(b *testing.B) {
		b.ReportAllocs()
		buf = led.SnapshotAll(buf[:0])
		for i := 0; i < b.N; i++ {
			buf = led.SnapshotAll(buf[:0])
		}
	})
	ledResults = record("sample_tree_walk_seed", ledResults, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var total int64
			exec.Walk(op, func(o exec.Operator) { total += o.Runtime().Returned() })
			sink += total
		}
	})
	ledResults = append(ledResults, parallelScanRows([]int{1, 2, 4, 8}, 3, false)...)
	writeDump(*out3, ledResults)

	// Vectorized-engine benchmarks: the batch-at-a-time executor against
	// the row engine on the same plans, with the same harness shape as the
	// BENCH_1 rows (plan rebuilt per iteration under a stopped timer) so
	// the row-vs-batch ratios and the trajectory against earlier BENCH_1
	// artifacts are apples-to-apples. The parallel-scan rows rerun the
	// BENCH_3 scaling experiment through the batch reader, whose native
	// path moves whole worker batches instead of rows.
	var vecResults []result
	vecResults = record("exec_inl_join_row", vecResults, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := synthPlan(rows)
			b.StartTimer()
			if _, err := exec.Run(exec.NewCtx(), p); err != nil {
				b.Fatal(err)
			}
		}
	})
	vecResults = record("exec_inl_join_batch", vecResults, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := synthPlan(rows)
			b.StartTimer()
			if _, err := exec.RunBatch(exec.NewCtx(), p); err != nil {
				b.Fatal(err)
			}
		}
	})
	hdb := sqlprogress.Open()
	hpair := datagen.NewSkewPair(rows, int64(rows), 2, 1)
	hdb.Catalog().AddRelation(hpair.R1)
	hdb.Catalog().AddRelation(hpair.R2)
	hdb.DeclareUnique("r1", "a")
	buildHashJoin := func() exec.Operator {
		pb := plan.NewBuilder(hdb.Catalog())
		return pb.Scan("r2").HashJoin(pb.Scan("r1"), "b", "a", exec.InnerJoin).Op
	}
	vecResults = record("exec_hash_join_row", vecResults, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := buildHashJoin()
			b.StartTimer()
			if _, err := exec.Run(exec.NewCtx(), p); err != nil {
				b.Fatal(err)
			}
		}
	})
	vecResults = record("exec_hash_join_batch", vecResults, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := buildHashJoin()
			b.StartTimer()
			if _, err := exec.RunBatch(exec.NewCtx(), p); err != nil {
				b.Fatal(err)
			}
		}
	})
	vecResults = append(vecResults, parallelScanRows([]int{1, 2, 4, 8}, 3, true)...)
	writeDump(*out4, vecResults)

	// Paged-storage benchmarks: the disk-backed subsystem's artifact —
	// cold vs warm pool timings with hit ratios, plus the estimator
	// errors each cache regime induces (the I/O-bound scenario the pager
	// PR makes measurable).
	writeDump(*out5, pagedCacheRows(3))

	// Whole-plan parallelism benchmarks: partitioned hash-join and parallel
	// pre-aggregation speedups over the serial batch engine, plus the
	// sub-slot snapshot cost (cmd/benchgate -par holds the checked-in
	// speedup floors).
	writeDump(*out6, parallelJoinAggRows(3))

	// Estimator accuracy matrix: the full sweep, refreshed alongside the
	// timing artifacts so the two never drift apart.
	accMatrix(*outAcc)
}

// sink defeats dead-code elimination in the sample-path benchmarks.
var sink int64

func writeDump(path string, results []result) {
	d := dump{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Date:      time.Now().UTC().Format(time.RFC3339),
		Results:   results,
	}
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		panic(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
