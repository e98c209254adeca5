package main

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"time"

	"sqlprogress"
	"sqlprogress/internal/compile"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/server"
	"sqlprogress/internal/session"
	"sqlprogress/internal/sqlparse"
)

// The traced run replays the first tracedQueries queries of the workload
// in-process, one at a time, and records spans from this file around the
// calls into each layer. A fixed count (not a time budget) is what lets the
// counted metrics — exec.getnext_calls, pager.pages_read_per_query — repeat
// exactly for a seed.
const tracedQueries = 150

// samplesPerQuery is the target number of call-count samples per query in
// the sampling pass.
const samplesPerQuery = 20

// ratioErrCap replaces an infinite ratio error (an estimate of 0 while work
// has been done) so every metric stays a finite JSON number.
const ratioErrCap = 1e6

type tracedResult struct {
	tally
	metrics []metric
}

// heapAllocs reads the process's cumulative heap object count. It stops the
// world (runtime/metrics would not, but its count lags by whatever sits in
// per-P caches), so it is only called between spans, never inside one. The
// replay is the only goroutine allocating, so deltas are per-call counts.
func heapAllocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// execStats is what the exec pass collects besides spans.
type execStats struct {
	parseAllocs, planAllocs, execAllocs []float64
	nodes                               []float64
	calls                               int64
	native                              int
	byClass                             map[string][]float64 // exec.run ms
}

// replayOne takes one query through parse → plan → execute on the
// vectorized path the daemon uses (no per-call hooks), under rec's spans.
// With st nil nothing but the spans is collected; with rec nil too it is
// the bare arm of the overhead pairs.
func replayOne(rec *recorder, st *execStats, ref *refDB, q query) (rows int, calls int64, err error) {
	root := rec.begin("query")
	defer rec.end(root)
	allocs := func() float64 {
		if st == nil {
			return 0
		}
		return heapAllocs()
	}
	a0 := allocs()
	id := rec.begin("sqlparse.parse")
	sel, err := sqlparse.Parse(q.SQL)
	rec.end(id)
	if err != nil {
		return 0, 0, err
	}
	a1 := allocs()
	id = rec.begin("compile.plan")
	op, err := compile.Compile(ref.cat, sel)
	rec.end(id)
	if err != nil {
		return 0, 0, err
	}
	a2 := allocs()
	ctx := exec.NewCtx()
	id = rec.begin("exec.run")
	t0 := time.Now()
	out, err := exec.RunBatchContext(context.Background(), ctx, op)
	ms := float64(time.Since(t0)) / 1e6
	rec.end(id)
	if err != nil {
		return 0, 0, err
	}
	if st != nil {
		a3 := allocs()
		st.parseAllocs = append(st.parseAllocs, a1-a0)
		st.planAllocs = append(st.planAllocs, a2-a1)
		st.execAllocs = append(st.execAllocs, a3-a2)
		n := 0
		exec.Walk(op, func(exec.Operator) { n++ })
		st.nodes = append(st.nodes, float64(n))
		st.calls += ctx.Calls()
		if exec.NativeBatch(op) {
			st.native++
		}
		st.byClass[q.Class] = append(st.byClass[q.Class], ms)
	}
	return len(out), ctx.Calls(), nil
}

// samplingStats is what the sampling pass collects besides spans.
type samplingStats struct {
	maxErr     map[string][]float64 // per estimator: each query's max ratio error
	slots      []float64
	violations int
}

// sampleOne runs one query on the exact (per-call hook) path, sampling every
// `every` GetNext calls: one tracker capture, one bounds pass, one ledger
// snapshot and every registered estimator, each under its own span. Sampling
// by call count makes the instants, and so the ratio errors, repeat exactly.
func sampleOne(rec *recorder, st *samplingStats, ref *refDB, q query, every int64, estSpan []string) error {
	op, err := compile.CompileSQL(ref.cat, q.SQL)
	if err != nil {
		return err
	}
	tracker := core.NewTracker(op)
	ev := core.NewBoundsEvaluator(op)
	_, led := core.ShapeOf(op)
	ests := core.RegisteredEstimators()
	st.slots = append(st.slots, float64(led.Len()))

	type obs struct {
		curr, lb, ubTight, ub int64
		est                   []float64
	}
	var seen []obs
	var scratch []ledger.Snapshot
	ctx := exec.NewCtx()
	ctx.OnGetNext = func(calls int64) {
		if calls%every != 0 {
			return
		}
		sid := rec.begin("core.sample")
		id := rec.begin("core.capture")
		s := tracker.Capture()
		rec.end(id)
		id = rec.begin("core.bounds_compute")
		ev.Compute()
		rec.end(id)
		id = rec.begin("ledger.snapshot_all")
		scratch = led.SnapshotAll(scratch[:0])
		rec.end(id)
		o := obs{curr: s.Curr, lb: s.LB, ubTight: s.UBTight, ub: s.UB, est: make([]float64, len(ests))}
		for i, e := range ests {
			id = rec.begin(estSpan[i])
			o.est[i] = e.Estimate(s)
			rec.end(id)
		}
		seen = append(seen, o)
		rec.end(sid)
	}
	id := rec.begin("exec.run")
	_, err = exec.RunBatchContext(context.Background(), ctx, op)
	rec.end(id)
	if err != nil {
		return err
	}
	total := ctx.Calls()
	worst := make([]float64, len(ests))
	for i := range worst {
		worst[i] = 1
	}
	for _, o := range seen {
		if !(o.curr <= total && o.lb <= total && total <= o.ubTight && o.ubTight <= o.ub) {
			st.violations++
		}
		actual := float64(o.curr) / float64(total)
		for i, e := range o.est {
			worst[i] = math.Max(worst[i], math.Min(core.RatioError(actual, e), ratioErrCap))
		}
	}
	for i, e := range ests {
		st.maxErr[e.Name()] = append(st.maxErr[e.Name()], worst[i])
	}
	return nil
}

// overheadPairs runs, for as many of qs as fit in budget, the same query
// bare, under the inline monitor, under the async monitor and under the
// span recorder, rotating which arm goes first, and returns the medians of
// the per-query ratios to the bare arm. Only execution is timed for the
// monitor arms; the traced arm times the whole parse → plan → execute
// replay, which is what the recorder wraps.
func overheadPairs(ref *refDB, qs []query, budget time.Duration) (inline, async, traced float64, err error) {
	var rInline, rAsync, rTraced []float64
	start := time.Now()
	for i, q := range qs {
		if time.Since(start) > budget {
			break
		}
		var bare, in, as, plain, tr time.Duration
		arms := []func() error{
			func() error {
				pq, err := ref.db.Query(q.SQL)
				if err != nil {
					return err
				}
				t0 := time.Now()
				_, err = pq.Run()
				bare = time.Since(t0)
				return err
			},
			func() error {
				pq, err := ref.db.Query(q.SQL)
				if err != nil {
					return err
				}
				t0 := time.Now()
				_, err = pq.RunWithProgress(sqlprogress.ProgressOptions{}, func(sqlprogress.ProgressUpdate) {})
				in = time.Since(t0)
				return err
			},
			func() error {
				op, err := compile.CompileSQL(ref.cat, q.SQL)
				if err != nil {
					return err
				}
				mon := core.NewAsyncMonitor(op, 2*time.Millisecond, core.Dne{}, core.Pmax{}, core.Safe{})
				t0 := time.Now()
				_, err = mon.Run()
				as = time.Since(t0)
				return err
			},
			func() error {
				t0 := time.Now()
				_, _, err := replayOne(nil, nil, ref, q)
				plain = time.Since(t0)
				return err
			},
			func() error {
				rec := newRecorder()
				t0 := time.Now()
				_, _, err := replayOne(rec, nil, ref, q)
				tr = time.Since(t0)
				return err
			},
		}
		for k := range arms {
			if err := arms[(i+k)%len(arms)](); err != nil {
				return 0, 0, 0, fmt.Errorf("overhead pair: %s: %w", q.SQL, err)
			}
		}
		rInline = append(rInline, ratio(float64(in), float64(bare)))
		rAsync = append(rAsync, ratio(float64(as), float64(bare)))
		rTraced = append(rTraced, ratio(float64(tr), float64(plain)))
	}
	return median(rInline), median(rAsync), median(rTraced), nil
}

// tracedRun is the state the passes of one traced run share.
type tracedRun struct {
	w    *workload
	ref  *refDB
	qs   []query
	want map[string]expectation
	rec  *recorder
	res  *tracedResult
	ms   *metricSet
}

// runTraced is the traced run of one workload: four passes over qs, the
// first tracedQueries queries of the stream, then the overhead pairs for a
// third of dur. perClass are the client.class.* values of the end-to-end load
// that ran beside it; they are per-layer metrics but only a real client can
// see them.
func runTraced(w *workload, seed int64, qs []query, want map[string]expectation, dur time.Duration, ref *refDB, outDir string, perClass []metric) (*tracedResult, error) {
	t := &tracedRun{w: w, ref: ref, qs: qs, want: want, rec: newRecorder(), res: &tracedResult{}, ms: newMetricSet(perLayerDefs())}
	t.execPass()
	t.samplingPass()
	if err := t.servingPasses(); err != nil {
		return nil, err
	}
	// The session manager retained every plan (hash tables, sort buffers);
	// collect that before timing pairs, so a GC cycle over it does not land
	// on whichever arm happens to run first.
	runtime.GC()
	inline, async, traced, err := overheadPairs(ref, qs, dur/3)
	if err != nil {
		return nil, err
	}
	t.ms.set("core.inline_overhead_ratio", inline, 0)
	t.ms.set("core.async_overhead_ratio", async, 0)
	t.ms.set("trace.overhead_ratio", traced, 0)
	for _, m := range perClass {
		t.ms.set(m.Name, m.Value, m.N)
	}

	path, err := t.rec.flush(outDir, w.name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %s: %d spans written to %s\n", w.name, len(t.rec.spans), path)
	if t.res.metrics, err = t.ms.list(); err != nil {
		return nil, err
	}
	return t.res, nil
}

// execPass is pass 1: parse → plan → execute on the vectorized path, the
// one the daemon runs. It yields the sqlparse, compile, exec and pager
// metrics; its exec.run spans have no children, so self time is the span.
func (t *tracedRun) execPass() {
	from := len(t.rec.spans)
	st := &execStats{byClass: map[string][]float64{}}
	var readNs []float64
	var ioReads, ioNs int64
	poolBefore := t.ref.poolStats()
	if io := t.ref.io; io != nil {
		ioReads, ioNs = io.reads.Load(), io.readNs.Load()
		io.each = func(ns int64) { readNs = append(readNs, float64(ns)) }
	}
	for i, q := range t.qs {
		t.rec.setQuery(i + 1)
		rows, calls, err := replayOne(t.rec, st, t.ref, q)
		t.res.attempted++
		e := t.want[q.SQL]
		switch {
		case err != nil:
			t.res.fail("exec pass: %s: %v", q.SQL, err)
		case rows != e.Rows || calls < e.CallsLo || calls > e.CallsHi:
			t.res.fail("exec pass: %s: rows %d calls %d, reference rows %d calls [%d, %d]", q.SQL, rows, calls, e.Rows, e.CallsLo, e.CallsHi)
		}
	}
	poolAfter := t.ref.poolStats()
	if io := t.ref.io; io != nil {
		io.each = nil
		ioReads, ioNs = io.reads.Load()-ioReads, io.readNs.Load()-ioNs
	}

	p := reduce(t.rec.spans[from:])
	execNs := p.self("exec.run")
	nq := len(t.qs)
	ms := t.ms
	ms.set("sqlparse.parse_us_p50", median(p.total("sqlparse.parse"))/1e3, nq)
	ms.set("sqlparse.allocs_per_op", mean(st.parseAllocs), nq)
	ms.set("compile.plan_us_p50", median(p.total("compile.plan"))/1e3, nq)
	ms.set("compile.allocs_per_op", mean(st.planAllocs), nq)
	ms.set("compile.nodes_per_plan", mean(st.nodes), nq)
	ms.set("exec.run_ms_p50", median(execNs)/1e6, len(execNs))
	ms.set("exec.getnext_calls", float64(st.calls), 0)
	ms.set("exec.ns_per_call", ratio(sum(execNs), float64(st.calls)), 0)
	ms.set("exec.allocs_per_query", mean(st.execAllocs), nq)
	ms.set("exec.batch_native_frac", ratio(float64(st.native), float64(nq)), nq)
	for _, c := range classNames {
		ms.set("exec.class."+c+"_ms_p50", median(st.byClass[c]), len(st.byClass[c]))
	}
	hits, misses := float64(poolAfter.Hits-poolBefore.Hits), float64(poolAfter.Misses-poolBefore.Misses)
	ms.set("pager.hit_ratio", ratio(hits, hits+misses), 0)
	ms.set("pager.misses", misses, 0)
	ms.set("pager.evictions", float64(poolAfter.Evictions-poolBefore.Evictions), 0)
	ms.set("pager.read_page_us_p50", median(readNs)/1e3, len(readNs))
	ms.set("pager.pages_read_per_query", ratio(float64(ioReads), float64(nq)), 0)
	ms.set("pager.read_share", ratio(float64(ioNs), sum(execNs)), 0)
}

// samplingPass is pass 2: the exact path with a call-count sampling hook.
// It yields the per-sample costs (ledger snapshot, capture, bounds pass,
// every estimator), the share of the run they take, the estimators' ratio
// errors and the bound-soundness count.
func (t *tracedRun) samplingPass() {
	from := len(t.rec.spans)
	ests := core.RegisteredEstimators()
	estSpan := make([]string, len(ests))
	for i, e := range ests {
		estSpan[i] = "core.estimate." + e.Name()
	}
	ss := &samplingStats{maxErr: map[string][]float64{}}
	for i, q := range t.qs {
		t.rec.setQuery(i + 1)
		every := t.want[q.SQL].CallsLo / samplesPerQuery
		if every < 1 {
			every = 1
		}
		t.res.attempted++
		if err := sampleOne(t.rec, ss, t.ref, q, every, estSpan); err != nil {
			t.res.fail("sampling pass: %s: %v", q.SQL, err)
		}
	}
	if ss.violations > 0 {
		t.res.fail("sampling pass: %d samples broke curr ≤ total, lb ≤ total ≤ ub_tight ≤ ub", ss.violations)
	}

	p := reduce(t.rec.spans[from:])
	run, self := sum(p.total("exec.run")), sum(p.self("exec.run"))
	snap := p.total("ledger.snapshot_all")
	ms := t.ms
	ms.set("ledger.snapshot_all_ns", median(snap), len(snap))
	ms.set("ledger.slots_per_plan", mean(ss.slots), len(ss.slots))
	ms.set("core.capture_ns", median(p.total("core.capture")), len(snap))
	ms.set("core.bounds_compute_ns", median(p.total("core.bounds_compute")), len(snap))
	for i, e := range ests {
		ms.set("core.estimate_ns."+e.Name(), median(p.total(estSpan[i])), len(snap))
		ms.set("core.max_ratio_err_p50."+e.Name(), median(ss.maxErr[e.Name()]), len(ss.maxErr[e.Name()]))
	}
	ms.set("core.sample_share", ratio(run-self, run), 0)
	ms.set("core.bound_violations", float64(ss.violations), 0)
}

// servingPasses are passes 3 and 4 over one session manager configured like
// the daemon's: first Manager.Submit with a direct subscription, then the
// same queries through server.New over httptest with the benchmark's own
// HTTP client.
func (t *tracedRun) servingPasses() error {
	from := len(t.rec.spans)
	rec, res := t.rec, t.res
	mgr := session.New(t.ref.cat, session.Config{SampleInterval: t.w.sampleInterval, Pool: t.ref.pool})
	var queueWait, runMs, events, samples []float64
	for i, q := range t.qs {
		rec.setQuery(i + 1)
		res.attempted++
		id := rec.begin("session.submit")
		sess, err := mgr.Submit(q.SQL, session.SubmitOptions{})
		rec.end(id)
		if err != nil {
			res.fail("session pass: %s: %v", q.SQL, err)
			continue
		}
		ch, unsub := sess.Subscribe()
		id = rec.begin("session.first_event")
		p, open := <-ch
		rec.end(id)
		n := 0
		id = rec.begin("session.drain")
		for open {
			n++
			if p.Final {
				break
			}
			p, open = <-ch
		}
		rec.end(id)
		unsub()
		info := sess.Info()
		if info.State != session.StateFinished || info.Started == nil || info.Finished == nil {
			res.fail("session pass: %s: state %s", q.SQL, info.State)
			continue
		}
		queueWait = append(queueWait, float64(info.Started.Sub(info.Created))/1e6)
		runMs = append(runMs, float64(info.Finished.Sub(*info.Started))/1e6)
		events = append(events, float64(n))
		samples = append(samples, float64(len(sess.Samples())))
	}

	srv := httptest.NewServer(server.New(mgr))
	client := srv.Client()
	var frameBytes, framesPer, doneLag []float64
	for i, q := range t.qs {
		rec.setQuery(i + 1)
		res.attempted++
		r := runQuery(client, srv.URL, q)
		if r.err == nil {
			r.err = checkFrames(r.frames, t.want[q.SQL])
		}
		if r.err != nil {
			res.fail("server pass: %s: %v", q.SQL, r.err)
			continue
		}
		done := r.sent.Add(r.latency())
		rec.record("server.submit", r.sent, r.sent.Add(r.postDone))
		rec.record("server.sse_open", r.sent.Add(r.postDone), r.sent.Add(r.openedAt))
		rec.record("server.stream", r.sent.Add(r.openedAt), done)
		for _, f := range r.frames {
			frameBytes = append(frameBytes, float64(f.Bytes))
		}
		framesPer = append(framesPer, float64(len(r.frames)))
		if sess, err := mgr.Get(r.sessionID); err == nil {
			if fin := sess.Info().Finished; fin != nil {
				doneLag = append(doneLag, float64(done.Sub(*fin))/1e6)
			}
		}
	}
	client.CloseIdleConnections()
	srv.Close()
	mm := mgr.Metrics()
	if err := mgr.Close(); err != nil {
		return err
	}
	if mm.Shed+mm.Failed > 0 {
		res.fail("session manager: shed %d failed %d", mm.Shed, mm.Failed)
	}

	p := reduce(rec.spans[from:])
	submitUs := median(p.total("session.submit")) / 1e3
	ms := t.ms
	ms.set("core.samples_per_query", mean(samples), len(samples))
	ms.set("session.submit_us_p50", submitUs, len(runMs))
	ms.set("session.queue_wait_ms_p50", median(queueWait), len(queueWait))
	ms.set("session.run_ms_p50", median(runMs), len(runMs))
	ms.set("session.events_per_query", mean(events), len(events))
	ms.set("session.first_event_ms_p50", median(p.total("session.first_event"))/1e6, len(events))
	ms.set("session.shed", float64(mm.Shed), 0)
	ms.set("session.failed", float64(mm.Failed), 0)
	ms.set("session.subs_evicted", float64(mm.SubscribersEvicted), 0)
	ms.set("server.submit_overhead_us_p50", median(p.total("server.submit"))/1e3-submitUs, len(framesPer))
	ms.set("server.sse_open_us_p50", median(p.total("server.sse_open"))/1e3, len(framesPer))
	ms.set("server.sse_frame_bytes_p50", median(frameBytes), len(frameBytes))
	ms.set("server.sse_frames_per_query", mean(framesPer), len(framesPer))
	ms.set("server.done_lag_ms_p50", median(doneLag), len(doneLag))
	return nil
}

// reduced is a run of spans with their self times.
type reduced struct {
	spans []span
	selfs []int64
}

func reduce(spans []span) reduced { return reduced{spans, selfTimes(spans)} }

// total returns the duration in nanoseconds of every span named name.
func (r reduced) total(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// self returns the self time in nanoseconds of every span named name.
func (r reduced) self(name string) []float64 {
	var out []float64
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(r.selfs[i]))
		}
	}
	return out
}
