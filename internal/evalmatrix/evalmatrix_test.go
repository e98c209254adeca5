package evalmatrix

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/stats"
)

// testOptions is a scaled-down matrix for unit tests: same cell structure
// as the checked-in artifact, smaller relations.
func testOptions() Options {
	return Options{
		Seed:      42,
		TPCHScale: 0.001,
		SkyRows:   2_000,
		AdvKeys:   500,
		AdvRows:   2_000,
		Samples:   20,
	}
}

var gridOnce struct {
	sync.Once
	rows []Row
	err  error
}

// testGrid runs the grid (no paper cells) at testOptions once per test
// binary; the tests below only read its rows.
func testGrid(t *testing.T) []Row {
	t.Helper()
	gridOnce.Do(func() { gridOnce.rows, gridOnce.err = runGrid(testOptions()) })
	if gridOnce.err != nil {
		t.Fatal(gridOnce.err)
	}
	return gridOnce.rows
}

// TestMatrixDeterministic is the flake audit: two back-to-back runs must
// encode to byte-identical artifacts.
func TestMatrixDeterministic(t *testing.T) {
	r1 := testGrid(t)
	r2, err := runGrid(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := EncodeJSON(r1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("first differing row %d:\n  run1 %+v\n  run2 %+v", i, r1[i], r2[i])
			}
		}
		t.Fatalf("artifacts differ (%d vs %d bytes) but rows compare equal", len(b1), len(b2))
	}
}

// TestMatrixShapeAndSoundness checks the structural acceptance criteria:
// full cell coverage, one row per estimator per cell, zero hard-bound
// violations anywhere, and the paper's ordering safe <= dne on every
// skewed-stale cell.
func TestMatrixShapeAndSoundness(t *testing.T) {
	rows := testGrid(t)
	cells := map[string]map[string]Row{}
	for _, r := range rows {
		id := r.CellID()
		if cells[id] == nil {
			cells[id] = map[string]Row{}
		}
		if _, dup := cells[id][r.Estimator]; dup {
			t.Fatalf("duplicate row %s", r.Key())
		}
		cells[id][r.Estimator] = r
	}
	// 5 datasets x 3 healths x 6 families.
	if want := 5 * 3 * 6; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	if len(cells) < 40 {
		t.Fatalf("matrix too small for acceptance: %d cells < 40", len(cells))
	}
	nEst := len(estimators(testOptions()))
	skewedStale, lpTighter := 0, 0
	for id, byEst := range cells {
		if len(byEst) != nEst {
			t.Fatalf("cell %s has %d estimator rows, want %d", id, len(byEst), nEst)
		}
		for _, r := range byEst {
			// The credit trigger samples mid-probe and mid-fold: every
			// family, blocking or not, is scored on most of its due
			// instants.
			if minSamples := 10; r.Samples < minSamples {
				t.Errorf("%s: only %d samples, want >= %d", r.Key(), r.Samples, minSamples)
			}
			if r.LBRegressions != 0 || r.UBRegressions != 0 || r.BoundMisses != 0 {
				t.Errorf("%s: bound violations lb=%d ub=%d miss=%d",
					r.Key(), r.LBRegressions, r.UBRegressions, r.BoundMisses)
			}
			if r.UBTightRegressions != 0 || r.TightBoundMisses != 0 {
				t.Errorf("%s: pessimistic bound violations reg=%d miss=%d",
					r.Key(), r.UBTightRegressions, r.TightBoundMisses)
			}
			if r.MaxRatioErr < 1 {
				t.Errorf("%s: max ratio error %v < 1", r.Key(), r.MaxRatioErr)
			}
			if r.Mu <= 0 {
				t.Errorf("%s: mu = %v", r.Key(), r.Mu)
			}
		}
		if byEst["dne"].SkewedStale {
			skewedStale++
			if safe, dne := byEst["safe"].MaxRatioErr, byEst["dne"].MaxRatioErr; safe > dne {
				t.Errorf("%s: safe max ratio error %.4f exceeds dne's %.4f on a skewed-stale cell",
					id, safe, dne)
			}
			comb := byEst["combiner"].MaxRatioErr
			if best := minF(byEst["dne"].MaxRatioErr, byEst["safe"].MaxRatioErr); comb > best {
				t.Errorf("%s: combiner max ratio error %.4f exceeds min(dne, safe) %.4f on a skewed-stale cell",
					id, comb, best)
			}
		}
		if byEst["lp-safe"].MaxRatioErr < byEst["safe"].MaxRatioErr {
			lpTighter++
		}
	}
	// tpch-z1, tpch-z2, adversarial joins.
	if want := 3; skewedStale != want {
		t.Errorf("got %d skewed-stale cells, want %d", skewedStale, want)
	}
	if lpTighter == 0 {
		t.Error("lp-safe never strictly beat safe: the degree-norm bound tightened nothing")
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// TestMatrixTriggerAgreesWithExactRun: the matrix samples every family on
// the executor's credit trigger, with bulk pulls. Total calls and mu are
// execution properties, so each family's trigger-sampled run must agree on
// them with an exact run of the same plan (the same trigger, with a no-op
// per-call hook forcing one-row pulls).
func TestMatrixTriggerAgreesWithExactRun(t *testing.T) {
	opts := testOptions().withDefaults()
	for _, ds := range datasets() {
		sc, err := buildScenario(ds, stats.Fresh, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sc.cleanup)
		for _, fam := range sc.families {
			var mons [2]*core.Monitor
			for i := range mons {
				root, err := fam.build()
				if err != nil {
					t.Fatal(err)
				}
				m := core.NewMonitor(root, 50, core.Safe{})
				if i == 0 {
					_, err = m.Run()
				} else {
					ctx := exec.NewCtx()
					m.Attach(ctx)
					ctx.OnGetNext = func(int64) {}
					_, err = exec.RunBatch(ctx, root)
					m.Finish(ctx.Calls())
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", ds.name, fam.name, err)
				}
				mons[i] = m
			}
			trig, exact := mons[0], mons[1]
			if trig.Total() != exact.Total() || trig.Mu() != exact.Mu() {
				t.Errorf("%s/%s: trigger run total %d mu %v, exact run total %d mu %v",
					ds.name, fam.name, trig.Total(), trig.Mu(), exact.Total(), exact.Mu())
			}
		}
	}
}

// TestJoinFamilyCreditsAPullAtATime: the join family drives an INL join
// with its supplier keys in skew-last order, so the last few probe rows fan
// out to most of the result. Pulled in bulk at 64 rows with the sampling
// trigger at every = 1, Curr may move by at most one pull between fires:
// the join credits a stride's output in pieces, or the trigger would see the
// fan-out land in one step.
func TestJoinFamilyCreditsAPullAtATime(t *testing.T) {
	const want = 64
	opts := testOptions().withDefaults()
	for _, ds := range datasets() {
		sc, err := buildScenario(ds, stats.Fresh, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sc.cleanup)
		i := slices.IndexFunc(sc.families, func(f familySpec) bool { return f.name == "join" })
		root, err := sc.families[i].build()
		if err != nil {
			t.Fatal(err)
		}
		ctx := exec.NewCtx()
		ctx.BatchSize = want
		prev, maxStep := int64(0), int64(0)
		ctx.SampleEvery(1, func(curr int64) {
			maxStep, prev = max(maxStep, curr-prev), curr
		})
		if _, err := exec.RunBatch(ctx, root); err != nil {
			t.Fatal(err)
		}
		if maxStep > want {
			t.Errorf("%s: Curr moved by %d calls in one credit, more than a %d-row pull", ds.name, maxStep, want)
		}
	}
}

// TestPerturbationInflatesError: breaking an estimator must show up in its
// matrix rows — the mechanism the accuracy gate's negative self-test relies
// on.
func TestPerturbationInflatesError(t *testing.T) {
	base := testGrid(t)
	opts := testOptions()
	opts.Perturb = map[string]float64{"dne": 0.7}
	broken, err := runGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(broken) {
		t.Fatalf("row counts differ: %d vs %d", len(base), len(broken))
	}
	worse, others := 0, 0
	for i := range base {
		if base[i].Key() != broken[i].Key() {
			t.Fatalf("row order differs at %d: %s vs %s", i, base[i].Key(), broken[i].Key())
		}
		if base[i].Estimator == "dne" {
			if broken[i].MaxRatioErr > base[i].MaxRatioErr*1.10 {
				worse++
			}
		} else if broken[i].MaxRatioErr != base[i].MaxRatioErr {
			others++
		}
	}
	if worse == 0 {
		t.Fatal("perturbing dne by 0.7 did not inflate any dne cell past the 10% gate slack")
	}
	if others != 0 {
		t.Errorf("perturbing dne changed %d non-dne rows", others)
	}
}

// TestArtifactRoundTrip: encode -> write -> read preserves rows exactly.
func TestArtifactRoundTrip(t *testing.T) {
	rows := []Row{
		{Dataset: "d", Stats: string(stats.Fresh), Family: "scan",
			Estimator: "dne", Mu: 1, MaxRatioErr: 1.25, MaxAbsErr: 0.1, L1Err: 0.01,
			Convergence: 0.5, Samples: 12},
		{Dataset: "d", Stats: string(stats.Stale), Family: "join",
			Estimator: "safe", Mu: 2.5, MaxRatioErr: RatioErrCap, L1Err: 0.2,
			Convergence: ConvergenceNever, Samples: 7, SkewedStale: true},
	}
	path := t.TempDir() + "/acc.json"
	if err := WriteFile(path, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], rows[i])
		}
	}
}

// TestTable renders without panicking and reports every cell once.
func TestTable(t *testing.T) {
	rows := testGrid(t)
	res := Table(rows)
	if want := len(rows) / len(estimators(testOptions())); len(res.Rows) != want {
		t.Fatalf("table has %d rows, want %d", len(res.Rows), want)
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
	if len(res.Metrics) != len(rows) {
		t.Fatalf("metrics map has %d entries, want %d", len(res.Metrics), len(rows))
	}
}

// TestConvergenceMetric pins the backwards-scan definition on a hand-built
// series.
func TestConvergenceMetric(t *testing.T) {
	mk := func(pairs ...float64) []core.Point {
		out := make([]core.Point, 0, len(pairs)/2)
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, core.Point{Actual: pairs[i], Est: pairs[i+1]})
		}
		return out
	}
	// Converges at 0.5: the 0.25 sample is off by 2x, everything after is exact.
	if got := convergence(mk(0.25, 0.5, 0.5, 0.5, 1.0, 1.0)); got != 0.5 {
		t.Fatalf("convergence = %v, want 0.5", got)
	}
	// Never converges: last sample is off by 2x.
	if got := convergence(mk(0.5, 0.5, 1.0, 0.5)); got != ConvergenceNever {
		t.Fatalf("convergence = %v, want %v", got, ConvergenceNever)
	}
	// Converged from the start.
	if got := convergence(mk(0.5, 0.5, 1.0, 1.0)); got != 0.5 {
		t.Fatalf("convergence = %v, want 0.5", got)
	}
}

func TestRenderAndCSV(t *testing.T) {
	r := Result{
		ID: "x", Title: "t",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"note"},
	}
	out := r.Render()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "# note") {
		t.Errorf("render = %q", out)
	}
	if csv := r.CSV(); csv != "a,bb\n1,2\n" {
		t.Errorf("csv = %q", csv)
	}
}
