// Command benchgate is the estimator accuracy gate. It re-runs the full
// accuracy matrix (deterministic, so the comparison is exact) against the
// checked-in BENCH_ACC.json and fails when any cell's max ratio error
// regresses past the slack factor, any cell is scored on fewer samples than
// the artifact's (an error measured at fewer instants is a weaker claim, not a
// smaller error), any hard-bound soundness counter fires —
// including the pessimistic degree-norm bound's (ubtight_regressions,
// tight_bound_misses) — any baseline cell disappears, a skewed-stale cell
// loses the paper's safe <= dne ordering or the robust-combiner ordering
// combiner <= min(dne, safe), or the lp-safe estimator fails to strictly
// beat safe on at least one cell (the degree-sequence join bound must
// demonstrably tighten something, or it has silently stopped attaching).
// The same run's paper cells (dataset "paper": Figures 3-7, Tables 1-3 and
// the cold-vs-warm pager runs) are held to the cell checks above and to
// evalmatrix.PaperClaims, the paper's qualitative claims: Fig. 3 and 7 dne
// nearly exact, Fig. 4 dne underestimating with pmax within mu, safe beating
// dne under Fig. 5's worst-case order, Table 1's hash plan beating the INL
// plan, Fig. 6's pmax converging, Fig. 7's safe visibly off, the Table 2/3 mu
// bands, and cold pools hurting dne and pmax more than warm ones.
// -perturb name=factor deliberately breaks an estimator first — CI uses it
// as the gate's negative self-test.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sqlprogress/internal/evalmatrix"
)

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

// gate re-runs the matrix and holds every cell to its checked-in baseline.
// Returns the number of violations (each is printed as it is found).
func gate(baselinePath string, slack float64, perturb map[string]float64) int {
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
		if g.Samples < b.Samples {
			fail("%s: scored on %d samples, baseline %d", g.Key(), g.Samples, b.Samples)
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
	for _, err := range evalmatrix.PaperClaims(gotRows) {
		fail("paper claim %v", err)
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
	file := flag.String("f", "BENCH_ACC.json", "accuracy artifact to gate against")
	slack := flag.Float64("slack", 1.10, "allowed max-ratio-error growth factor per cell")
	perturbFlag := flag.String("perturb", "", "multiply named estimators' outputs, e.g. dne=0.7 (negative self-test)")
	flag.Parse()

	perturb, err := parsePerturb(*perturbFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	if bad := gate(*file, *slack, perturb); bad > 0 {
		os.Exit(1)
	}
}
