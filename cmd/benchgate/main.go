// Command benchgate guards the vectorized executor's allocation budget in
// CI. It re-runs the batch INL-join benchmark through testing.Benchmark and
// compares allocs/op against a checked-in BENCH_N.json artifact, failing
// when the measured count exceeds the recorded one by more than the slack
// factor. With no -f, the newest artifact containing the gated row is used
// (numbered artifacts are suite-specific — BENCH_5 holds paged-storage
// rows, not the INL-join row — so the gate scans newest-first for its
// row). Only allocations are gated: allocs/op is deterministic for this
// workload, while wall-clock varies too much across CI machines to gate
// without flakes (ns/op is printed for information only).
//
// With -acc the gate switches to the estimator accuracy matrix: it re-runs
// the full sweep (deterministic, so the comparison is exact) against the
// checked-in BENCH_ACC.json and fails when any cell's max ratio error
// regresses past the slack factor, any hard-bound soundness counter fires —
// including the pessimistic degree-norm bound's (ubtight_regressions,
// tight_bound_misses) — any baseline cell disappears, a skewed-stale cell
// loses the paper's safe <= dne ordering or the robust-combiner ordering
// combiner <= min(dne, safe), or the lp-safe estimator fails to strictly
// beat safe on at least one cell (the degree-sequence join bound must
// demonstrably tighten something, or it has silently stopped attaching).
// -perturb name=factor deliberately breaks an estimator first — CI uses it
// as the gate's negative self-test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	sqlprogress "sqlprogress"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/evalmatrix"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/plan"
)

// dump mirrors cmd/benchdump's file layout (only the fields the gate needs).
type dump struct {
	Results []struct {
		Name     string  `json:"name"`
		NsPerOp  float64 `json:"ns_per_op"`
		AllocsOp int64   `json:"allocs_per_op"`
	} `json:"results"`
}

// synthPlan is the Section 5 INL plan (mirrors the root bench suite and
// cmd/benchdump): a 20k-row skewed pair joined through the r1.a hash index.
func synthPlan(n int) exec.Operator {
	pair := datagen.NewSkewPair(n, int64(n), 2, 1)
	db := sqlprogress.Open()
	db.Catalog().AddRelation(pair.R1)
	db.Catalog().AddRelation(pair.R2)
	db.DeclareUnique("r1", "a")
	b := plan.NewBuilder(db.Catalog())
	return b.Scan("r1").INLJoin("r2", "b", "a", exec.InnerJoin).Op
}

// rowIn reads a dump file and returns the named row's allocs/op, or -1 if
// the file lacks that row.
func rowIn(file, row string) (int64, error) {
	buf, err := os.ReadFile(file)
	if err != nil {
		return -1, err
	}
	var d dump
	if err := json.Unmarshal(buf, &d); err != nil {
		return -1, fmt.Errorf("%s: %v", file, err)
	}
	for _, r := range d.Results {
		if r.Name == row {
			return r.AllocsOp, nil
		}
	}
	return -1, nil
}

// newestBaseline scans the checked-in BENCH_*.json artifacts newest-first
// (highest number first) and returns the first one holding the gated row.
func newestBaseline(row string) (string, int64, error) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", -1, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(files)))
	for _, f := range files {
		base, err := rowIn(f, row)
		if err != nil {
			return "", -1, err
		}
		if base >= 0 {
			return f, base, nil
		}
	}
	return "", -1, fmt.Errorf("no BENCH_*.json artifact has a row named %q", row)
}

// parsePerturb turns "dne=0.7,pmax=1.2" into estimator output multipliers.
func parsePerturb(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("perturbation %q: want name=factor", pair)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("perturbation %q: %v", pair, err)
		}
		out[name] = f
	}
	return out, nil
}

// gateAcc is the accuracy-gate mode: re-run the matrix and hold every cell
// to its checked-in baseline. Returns the number of violations (each is
// printed as it is found).
func gateAcc(baselinePath string, slack float64, perturb map[string]float64) int {
	baseRows, err := evalmatrix.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	base := make(map[string]evalmatrix.Row, len(baseRows))
	for _, r := range baseRows {
		base[r.Key()] = r
	}
	opts := evalmatrix.DefaultOptions()
	opts.Perturb = perturb
	gotRows, err := evalmatrix.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	got := make(map[string]evalmatrix.Row, len(gotRows))
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	}
	cells := map[string]bool{}
	for _, g := range gotRows {
		got[g.Key()] = g
		cells[g.CellID()] = true
		if g.LBRegressions != 0 || g.UBRegressions != 0 || g.BoundMisses != 0 {
			fail("%s: hard-bound violation (lb_regressions=%d ub_regressions=%d bound_misses=%d)",
				g.Key(), g.LBRegressions, g.UBRegressions, g.BoundMisses)
		}
		if g.UBTightRegressions != 0 || g.TightBoundMisses != 0 {
			fail("%s: pessimistic-bound violation (ubtight_regressions=%d tight_bound_misses=%d)",
				g.Key(), g.UBTightRegressions, g.TightBoundMisses)
		}
		b, ok := base[g.Key()]
		if !ok {
			// New cells only extend the matrix; they get gated once checked in.
			continue
		}
		if g.MaxRatioErr > b.MaxRatioErr*slack {
			fail("%s: max ratio error regression: %.4f > %.4f (baseline %.4f x %.2f)",
				g.Key(), g.MaxRatioErr, b.MaxRatioErr*slack, b.MaxRatioErr, slack)
		}
	}
	for _, b := range baseRows {
		if _, ok := got[b.Key()]; !ok {
			fail("%s: cell present in %s but missing from this run", b.Key(), baselinePath)
		}
	}
	lpTighter := 0
	for _, g := range gotRows {
		if g.Estimator != "safe" {
			continue
		}
		if lp, ok := got[g.CellID()+"/lp-safe"]; ok && lp.MaxRatioErr < g.MaxRatioErr {
			lpTighter++
		}
		if !g.SkewedStale {
			continue
		}
		dne, ok := got[g.CellID()+"/dne"]
		if ok && g.MaxRatioErr > dne.MaxRatioErr {
			fail("%s: safe max ratio error %.4f exceeds dne's %.4f on a skewed-stale cell",
				g.CellID(), g.MaxRatioErr, dne.MaxRatioErr)
		}
		if comb, ok2 := got[g.CellID()+"/combiner"]; ok && ok2 {
			if best := minF(dne.MaxRatioErr, g.MaxRatioErr); comb.MaxRatioErr > best {
				fail("%s: combiner max ratio error %.4f exceeds min(dne, safe) %.4f on a skewed-stale cell",
					g.CellID(), comb.MaxRatioErr, best)
			}
		}
	}
	if lpTighter == 0 {
		fail("lp-safe never strictly beat safe in any cell: the degree-norm join bound tightened nothing")
	}
	fmt.Printf("accuracy gate: %d cells x %d rows vs %s: %d violation(s), lp-safe tighter in %d cell(s)\n",
		len(cells), len(gotRows), baselinePath, bad, lpTighter)
	return bad
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func main() {
	file := flag.String("f", "", "benchmark artifact to gate against (default: newest BENCH_*.json holding the row)")
	row := flag.String("row", "exec_inl_join_batch", "artifact row holding the baseline")
	slack := flag.Float64("slack", 1.10, "allowed allocs/op growth factor")
	acc := flag.Bool("acc", false, "gate the estimator accuracy matrix against BENCH_ACC.json instead")
	perturbFlag := flag.String("perturb", "", "acc mode: multiply named estimators' outputs, e.g. dne=0.7 (negative self-test)")
	flag.Parse()

	if *acc {
		perturb, err := parsePerturb(*perturbFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		baseline := *file
		if baseline == "" {
			baseline = "BENCH_ACC.json"
		}
		if bad := gateAcc(baseline, *slack, perturb); bad > 0 {
			os.Exit(1)
		}
		return
	}

	var base int64
	var err error
	if *file == "" {
		*file, base, err = newestBaseline(*row)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		fmt.Printf("gating against %s\n", *file)
	} else {
		base, err = rowIn(*file, *row)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		if base < 0 {
			fmt.Fprintf(os.Stderr, "%s: no row named %q\n", *file, *row)
			os.Exit(1)
		}
	}

	const rows = 20_000
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := synthPlan(rows)
			b.StartTimer()
			if _, err := exec.RunBatch(exec.NewCtx(), p); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := r.AllocsPerOp()
	limit := int64(float64(base) * *slack)
	fmt.Printf("%s: %d allocs/op (baseline %d, limit %d), %.0f ns/op informational\n",
		*row, got, base, limit, float64(r.T.Nanoseconds())/float64(r.N))
	if got > limit {
		fmt.Fprintf(os.Stderr, "benchgate: allocs/op regression: %d > %d (baseline %d × %.2f)\n",
			got, limit, base, *slack)
		os.Exit(1)
	}
}
