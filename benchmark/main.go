// Command benchmark is the repository's benchmark: it measures progressd end
// to end on three workloads and, in a separate traced run, each layer on its
// own. See README.md in this directory.
//
//	go run ./benchmark                      # every workload, both runs
//	go run ./benchmark -workload short      # one workload, both runs
//	go run ./benchmark -workload paged -trace 1   # its per-layer metrics only
//	go run ./benchmark -aa                  # the suite twice, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sqlprogress/internal/pager"
)

// runResult is everything one workload's run produced.
type runResult struct {
	tally
	workload string
	endToEnd []metric // nil when only the traced run was asked for
	perLayer []metric // nil when only the end-to-end run was asked for
}

// all is every metric the run reports, end-to-end first.
func (r *runResult) all() []metric {
	return append(append([]metric(nil), r.endToEnd...), r.perLayer...)
}

// runWorkload runs one workload: the end-to-end run (trace 0), the traced
// run (trace 1), or both (trace -1). The traced run includes an end-to-end
// load of its own, because the client.* per-layer metrics come from it; when
// only the traced run was asked for, that load lasts a third of dur.
func runWorkload(bin string, w *workload, seed int64, dur time.Duration, trace int, outDir string) (*runResult, error) {
	ref, err := openRef(w, buildDir)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	if ref.pool != nil {
		fmt.Printf("# %s: heap files %.1f MiB behind a pool of %d frames (%.1f MiB)\n", w.name,
			float64(ref.heapBytes)/(1<<20), ref.pool.Capacity(), float64(ref.pool.Capacity())*pager.PageSize/(1<<20))
	}
	// One reference pass serves both runs: the traced slice is a prefix of
	// the stream, so its distinct queries are among the stream's.
	stream := w.stream(seed, streamLen)
	want, err := ref.expect(w, stream)
	if err != nil {
		return nil, err
	}
	loadDur := dur
	if trace == 1 {
		loadDur = dur / 3
	}
	e2e, err := runE2E(bin, w, stream, want, loadDur)
	if err != nil {
		return nil, err
	}
	res := &runResult{workload: w.name, tally: e2e.tally}
	if trace != 1 {
		res.endToEnd = e2e.endToEnd
	}
	if trace != 0 {
		tr, err := runTraced(w, seed, stream[:tracedQueries], want, dur, ref, outDir, e2e.perClass)
		if err != nil {
			return nil, err
		}
		res.perLayer = tr.metrics
		res.add(tr.tally)
	}
	return res, nil
}

func (r *runResult) print() {
	for _, m := range r.all() {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Printf("%-18s %-36s %14.4f %-6s %s\n", r.workload, m.Name, m.Value, m.Unit, n)
	}
	fmt.Printf("%-18s attempted=%d failed=%d\n", r.workload, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Printf("%-18s FAIL %s\n", r.workload, f)
	}
}

// resultLine is the machine-readable last line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) line() resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.all() {
		out.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives byte-identical SQL streams")
		seconds      = flag.Int("seconds", 25, "length of each measured phase")
		trace        = flag.Int("trace", -1, "0 = end-to-end metrics only, 1 = per-layer metrics only (traced run), -1 = both")
		aa           = flag.Bool("aa", false, "run the end-to-end suite twice and compare the pair against the bounds in BENCHMARK.json")
		outDir       = flag.String("out", "benchmark/out", "directory for trace-<workload>.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatalf("unknown workload %q", *workloadName)
		}
		selected = []workload{*w}
	}
	bin, err := buildProgressd()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s clients=1 seed=%d seconds=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *seconds)
	dur := time.Duration(*seconds) * time.Second

	if *aa {
		if !runAA(bin, selected, *seed, dur) {
			os.Exit(1)
		}
		return
	}

	var results []*runResult
	failed := 0
	for i := range selected {
		res, err := runWorkload(bin, &selected[i], *seed, dur, *trace, *outDir)
		if err != nil {
			fatalf("%s: %v", selected[i].name, err)
		}
		res.print()
		results = append(results, res)
		failed += res.failed
	}
	// Last line: one JSON object. For a single workload it is the result
	// object itself; for several, one such object per workload name.
	enc := json.NewEncoder(os.Stdout)
	if len(results) == 1 {
		enc.Encode(results[0].line())
	} else {
		all := map[string]resultLine{}
		for _, r := range results {
			all[r.workload] = r.line()
		}
		enc.Encode(all)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
