package evalmatrix

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/stats"
)

var paperOnce struct {
	sync.Once
	scored []Scored
	err    error
}

// paperScored runs every paper cell once per test binary, at the scale
// BENCH_ACC.json records.
func paperScored(t *testing.T) map[string]Scored {
	t.Helper()
	paperOnce.Do(func() { paperOnce.scored, paperOnce.err = RunPaper(DefaultOptions()) })
	if paperOnce.err != nil {
		t.Fatal(paperOnce.err)
	}
	out := map[string]Scored{}
	for _, s := range paperOnce.scored {
		out[s.Rows[0].Family] = s
	}
	return out
}

func TestPaperArtifacts(t *testing.T) {
	cells := map[string]bool{}
	for _, c := range paperCells() {
		if cells[c.name] {
			t.Errorf("duplicate paper cell %s", c.name)
		}
		cells[c.name] = true
	}
	if len(cells) != 38 {
		t.Errorf("%d paper cells, want 38", len(cells))
	}
	ids, used := map[string]bool{}, map[string]bool{}
	for _, a := range PaperArtifacts() {
		if ids[a.ID] {
			t.Errorf("duplicate artifact %s", a.ID)
		}
		ids[a.ID] = true
		for _, c := range a.cells {
			if !cells[c] {
				t.Errorf("%s: unknown cell %s", a.ID, c)
			}
			used[c] = true
		}
	}
	for c := range cells {
		if !used[c] {
			t.Errorf("cell %s belongs to no artifact", c)
		}
	}
	if _, err := RunPaper(DefaultOptions(), "nope"); err == nil {
		t.Error("RunPaper should reject an unknown artifact")
	}
}

// TestPaperClaims holds the paper cells to every claim, one subtest each, and
// to the bound rules every matrix cell is held to.
func TestPaperClaims(t *testing.T) {
	var rows []Row
	for _, s := range paperScored(t) {
		rows = append(rows, s.Rows...)
	}
	for _, r := range rows {
		if r.LBRegressions+r.UBRegressions+r.BoundMisses+r.UBTightRegressions+r.TightBoundMisses != 0 {
			t.Errorf("%s: bound violations %+v", r.Key(), r)
		}
	}
	errs := PaperClaims(rows)
	for _, c := range paperClaims {
		t.Run(c.name, func(t *testing.T) {
			for _, err := range errs {
				if strings.HasPrefix(err.Error(), c.name+":") {
					t.Error(err)
				}
			}
		})
	}
	if len(errs) > 0 && !t.Failed() {
		t.Errorf("paper cells incomplete: %v", errs)
	}
}

// TestPaperClaimsFire breaks each claim once on hand-built rows that satisfy
// every claim and expects exactly that claim to fail.
func TestPaperClaimsFire(t *testing.T) {
	type rowEdit func(set func(cell, est string, edit func(*Row)))
	allEsts := func(set func(string, string, func(*Row)), cell string, edit func(*Row)) {
		for _, e := range estimators(Options{}) {
			set(cell, e.Name(), edit)
		}
	}
	passing := rowEdit(func(set func(string, string, func(*Row))) {
		set("fig4", "dne", func(r *Row) { r.MaxAbsErr = 0.5 })
		for _, e := range []string{"dne", "pmax", "safe"} {
			set("fig5", e, func(r *Row) { r.MaxAbsErr, r.L1Err = 0.5, 0.25 })
		}
		set("fig5", "safe", func(r *Row) { r.MaxAbsErr, r.L1Err = 0.2, 0.1 })
		set("fig7", "safe", func(r *Row) { r.MaxAbsErr = 0.29 })
		for _, c := range []string{"pager-scan-cold", "pager-hash-join-agg-cold"} {
			allEsts(set, c, func(r *Row) { r.MaxRatioErr = 1.1 })
		}
	})
	breaks := map[string]rowEdit{
		"fig3/dne-nearly-exact":   func(set func(string, string, func(*Row))) { set("fig3", "dne", func(r *Row) { r.MaxAbsErr = 0.07 }) },
		"fig4/dne-underestimates": func(set func(string, string, func(*Row))) { set("fig4", "dne", func(r *Row) { r.MaxAbsErr = 0.2 }) },
		"fig4/pmax-within-mu":     func(set func(string, string, func(*Row))) { set("fig4", "pmax", func(r *Row) { r.MaxRatioErr = 1.3 }) },
		"fig5/safe-beats-dne":     func(set func(string, string, func(*Row))) { set("fig5", "safe", func(r *Row) { r.MaxAbsErr = 0.5 }) },
		"tab1/hash-beats-inl":     func(set func(string, string, func(*Row))) { set("tab1-hash", "pmax", func(r *Row) { r.L1Err = 0.3 }) },
		"fig6/pmax-converges": func(set func(string, string, func(*Row))) {
			set("fig6", "pmax", func(r *Row) { r.Convergence = ConvergenceNever })
		},
		"fig7/dne-nearly-exact": func(set func(string, string, func(*Row))) { set("fig7", "dne", func(r *Row) { r.MaxAbsErr = 0.06 }) },
		"fig7/safe-visibly-off": func(set func(string, string, func(*Row))) { set("fig7", "safe", func(r *Row) { r.MaxAbsErr = 0.09 }) },
		"tab2/mu-mostly-below-1.5": func(set func(string, string, func(*Row))) {
			for q := 1; q <= 8; q++ {
				allEsts(set, fmt.Sprintf("tab2-q%d", q), func(r *Row) { r.Mu = 1.6 })
			}
		},
		"tab2/mu-in-range": func(set func(string, string, func(*Row))) { allEsts(set, "tab2-q3", func(r *Row) { r.Mu = 0.9 }) },
		"tab3/mu-in-range": func(set func(string, string, func(*Row))) { allEsts(set, "tab3-q6", func(r *Row) { r.Mu = 2.6 }) },
		"pager/cold-worse-than-warm": func(set func(string, string, func(*Row))) {
			set("pager-scan-warm", "dne", func(r *Row) { r.MaxRatioErr = 1.095 })
		},
		"pager/pmax-within-mu": func(set func(string, string, func(*Row))) {
			set("pager-scan-cold", "pmax", func(r *Row) { r.MaxRatioErr = 1.3 })
		},
	}
	// build returns one row per paper cell and estimator (mu 1.2, exact
	// estimates), edited by each of edits in turn.
	build := func(edits ...rowEdit) []Row {
		var rows []Row
		at := map[string]int{}
		for _, c := range paperCells() {
			for _, e := range estimators(Options{}) {
				at[c.name+"/"+e.Name()] = len(rows)
				rows = append(rows, Row{Dataset: "paper", Stats: string(stats.Fresh), Family: c.name,
					Estimator: e.Name(), Mu: 1.2, MaxRatioErr: 1, Convergence: 0.5, Samples: 40})
			}
		}
		set := func(cell, est string, edit func(*Row)) {
			i, ok := at[cell+"/"+est]
			if !ok {
				t.Fatalf("no hand-built row %s/%s", cell, est)
			}
			edit(&rows[i])
		}
		for _, e := range edits {
			e(set)
		}
		return rows
	}
	if errs := PaperClaims(build(passing)); len(errs) != 0 {
		t.Fatalf("hand-built passing rows fail: %v", errs)
	}
	for _, c := range paperClaims {
		brk, ok := breaks[c.name]
		if !ok {
			t.Errorf("%s: no breaking edit", c.name)
			continue
		}
		errs := PaperClaims(build(passing, brk))
		if len(errs) != 1 || !strings.HasPrefix(errs[0].Error(), c.name+":") {
			t.Errorf("%s: breaking it gave %v, want exactly that claim", c.name, errs)
		}
	}
	// A missing paper row is reported, not read as zero.
	if errs := PaperClaims(build(passing)[1:]); len(errs) == 0 || !strings.Contains(errs[0].Error(), "no row") {
		t.Errorf("a missing row gave %v", errs)
	}
}

// points returns the series an estimator of a paper cell was scored on.
func points(t *testing.T, cell, est string) []core.Point {
	t.Helper()
	_, pts := paperScored(t)[cell].at(est)
	if len(pts) == 0 {
		t.Fatalf("no %s series for paper cell %s", est, cell)
	}
	return pts
}

// TestThresholdRequirementAcrossScenarios is Section 2.5's threshold
// requirement over the paper cells: Figure 3's dne satisfies (tau 0.5,
// delta 0.05) and Figure 7's near-exact dne a tight (0.5, 0.02), while
// Figure 5's dne, under the worst-case order, fails even (0.5, 0.1): the
// Theorem 1 regime.
func TestThresholdRequirementAcrossScenarios(t *testing.T) {
	if !SatisfiesThreshold(points(t, "fig3", "dne"), 0.5, 0.05) {
		t.Error("fig3: dne should satisfy the threshold requirement on Q1")
	}
	if !SatisfiesThreshold(points(t, "fig7", "dne"), 0.5, 0.02) {
		t.Error("fig7: near-exact dne should satisfy a tight threshold")
	}
	if SatisfiesThreshold(points(t, "fig5", "dne"), 0.5, 0.1) {
		t.Error("fig5: dne should fail the threshold requirement under the worst-case order")
	}
}

// TestFig4PmaxNeverBelowActual is Property 4 at every sample of Figure 4.
func TestFig4PmaxNeverBelowActual(t *testing.T) {
	for _, p := range points(t, "fig4", "pmax") {
		if p.Est < p.Actual-1e-9 {
			t.Errorf("pmax %.4f below actual %.4f", p.Est, p.Actual)
		}
	}
}

// TestPagerPoolRegimes checks the pager cells' cache regimes: a cold pool is
// too small to cache the scan, a warm run performs no physical read.
func TestPagerPoolRegimes(t *testing.T) {
	d := &paperData{}
	defer d.close()
	for _, c := range paperCells() {
		if !strings.HasPrefix(c.name, "pager-") {
			continue
		}
		op, err := c.build(d)
		if err != nil {
			t.Fatal(err)
		}
		var pool *pager.Pool
		exec.Walk(op, func(o exec.Operator) {
			if s, ok := o.(*exec.Scan); ok {
				if pr, ok := s.Src.(*pager.PagedRelation); ok {
					pool = pr.Pool()
				}
			}
		})
		before := pool.Stats()
		if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
			t.Fatal(err)
		}
		after := pool.Stats()
		hits, reads := after.Hits-before.Hits, after.Misses-before.Misses
		if strings.HasSuffix(c.name, "-cold") && float64(hits) > 0.5*float64(hits+reads) {
			t.Errorf("%s: hit ratio %d/%d, the pool should be too small to cache the scan", c.name, hits, hits+reads)
		}
		if strings.HasSuffix(c.name, "-warm") && reads != 0 {
			t.Errorf("%s: %d physical reads, want 0", c.name, reads)
		}
	}
}

func TestThresholdRequirement(t *testing.T) {
	good := []core.Point{{Actual: 0.1, Est: 0.2}, {Actual: 0.9, Est: 0.8}}
	if !SatisfiesThreshold(good, 0.5, 0.05) {
		t.Error("good series should satisfy tau=0.5, delta=0.05")
	}
	bad := []core.Point{{Actual: 0.1, Est: 0.7}}
	if SatisfiesThreshold(bad, 0.5, 0.05) {
		t.Error("overestimate across the threshold should fail")
	}
	bad2 := []core.Point{{Actual: 0.9, Est: 0.3}}
	if SatisfiesThreshold(bad2, 0.5, 0.05) {
		t.Error("underestimate across the threshold should fail")
	}
	grey := []core.Point{{Actual: 0.52, Est: 0.4}}
	if !SatisfiesThreshold(grey, 0.5, 0.05) {
		t.Error("grey-area samples are unconstrained")
	}
}

// SatisfiesThreshold checks the paper's threshold requirement (Section 2.5)
// over a series: whenever actual < tau-delta the estimate must be < tau,
// and whenever actual > tau+delta the estimate must be > tau. Estimates in
// the grey area are unconstrained.
func SatisfiesThreshold(pts []core.Point, tau, delta float64) bool {
	for _, p := range pts {
		if p.Actual < tau-delta && p.Est >= tau {
			return false
		}
		if p.Actual > tau+delta && p.Est <= tau {
			return false
		}
	}
	return true
}
