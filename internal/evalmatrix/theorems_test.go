package evalmatrix

import (
	"math"
	"math/rand"
	"testing"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Theorems 1, 3 and 4 are constructions, not sampled runs: each test builds
// its construction at the paper cells' scale, asserts the theorem's claim and
// logs the table it measured.

// TestThm1Indistinguishability is Theorem 1's lower bound. The twin instances
// R11/R12 differ in one tuple t (placed after 90% of the rows) yet share
// their statistics; the plan is the paper's Figure 2, sigma(A = v OR A = v')
// then an INL join whose inner holds 9N rows of v'. At the instant before t
// is read every estimator outputs the same value on both instances, but true
// progress is ~0.9 on R11 and ~0.09 on R12, so some instance suffers a large
// error; safe minimises the worst case (Theorem 6).
func TestThm1Indistinguishability(t *testing.T) {
	n := paperSynthRows
	pos := n * 9 / 10
	tw := datagen.NewAdversarialTwins(n, pos, int64(n)*9)
	names := []string{"trivial", "dne", "pmax", "safe"}
	// measure returns each estimate when t is about to be read (pos GetNext
	// calls in) and the true progress at that instant.
	measure := func(r1 *schema.Relation) ([]float64, float64) {
		cat := catalog.New()
		cat.AddRelation(r1)
		cat.AddRelation(tw.R2)
		// R1.A holds distinct values, so the join is linear: that keeps
		// safe's UB, and its worst-case error ~sqrt(11), finite.
		cat.DeclareUnique("r1", "a")
		op := plan.NewBuilder(cat).Scan("r1").
			Filter(0.001, func(s *schema.Schema) expr.Expr {
				return expr.Or(
					expr.Compare(expr.EQ, expr.NewCol(s, "", "a"), expr.Literal(sqlval.Int(tw.V))),
					expr.Compare(expr.EQ, expr.NewCol(s, "", "a"), expr.Literal(sqlval.Int(tw.VPrime))))
			}).
			INLJoin("r2", "b", "a", exec.InnerJoin).Op
		tracker := core.NewTracker(op)
		ests := []core.Estimator{core.Trivial{}, core.Dne{}, core.Pmax{}, core.Safe{}}
		out := make([]float64, len(ests))
		ctx := exec.NewCtx()
		ctx.OnGetNext = func(calls int64) {
			if calls == int64(pos) {
				s := tracker.Capture()
				for i, e := range ests {
					out[i] = e.Estimate(s)
				}
			}
		}
		if _, err := exec.RunBatch(ctx, op); err != nil {
			t.Fatal(err)
		}
		return out, float64(pos) / float64(ctx.Calls())
	}
	est11, actual11 := measure(tw.R11)
	est12, actual12 := measure(tw.R12)

	worst := map[string]float64{}
	t.Logf("estimator  estimate@prefix  actual(R11)  actual(R12)  worst ratio err")
	for i, name := range names {
		if est11[i] != est12[i] {
			t.Errorf("%s: estimates differ between twin instances: %g vs %g", name, est11[i], est12[i])
		}
		worst[name] = math.Max(core.RatioError(actual11, est11[i]), core.RatioError(actual12, est12[i]))
		t.Logf("%-9s  %.3f            %.3f        %.3f        %.3f", name, est11[i], actual11, actual12, worst[name])
		// The construction forces a real gap on every estimator.
		if worst[name] < 2 {
			t.Errorf("%s: worst ratio error %.3f, the construction should force > 2", name, worst[name])
		}
	}
	for name, w := range worst {
		if worst["safe"] > w+1e-9 {
			t.Errorf("safe's worst case %.3f exceeds %s's %.3f; safe should be worst-case optimal", worst["safe"], name, w)
		}
	}
}

// TestThm3RandomOrderUnbiased is Theorem 3 and its discussion: under a
// random arrival order dne is correct in expectation at every instant (mean
// signed error ~ 0), and the spread of its error follows the per-tuple work
// variance: ~0 for uniform work, substantial for zipf z=2 (one tuple carries
// ~60% of the work), collapsing near completion. This is also the paper's
// Section 7 bridge to online aggregation.
func TestThm3RandomOrderUnbiased(t *testing.T) {
	n, trials := paperSynthRows, 40
	fracs := []float64{0.1, 0.5, 0.9, 0.99}
	// measure returns dne's mean absolute and mean signed error at each
	// fraction of the input, over seeded random orders of work.
	measure := func(work []int64, seed int64) (abs, signed []float64) {
		var total int64
		for _, w := range work {
			total += w
		}
		r := rand.New(rand.NewSource(seed))
		abs, signed = make([]float64, len(fracs)), make([]float64, len(fracs))
		for trial := 0; trial < trials; trial++ {
			r.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
			var done int64
			k := 0
			for fi, f := range fracs {
				for ; k < int(f*float64(n)); k++ {
					done += work[k]
				}
				d := float64(k)/float64(n) - float64(done)/float64(total)
				abs[fi] += math.Abs(d) / float64(trials)
				signed[fi] += d / float64(trials)
			}
		}
		return abs, signed
	}
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = 2
	}
	zipf := datagen.ZipfFrequencies(n, int64(n), paperZipf)
	for i := range zipf {
		zipf[i]++ // +1 scan call per tuple
	}
	uniAbs, uniSigned := measure(uniform, paperSeed)
	zipfAbs, zipfSigned := measure(zipf, paperSeed+1)

	t.Logf("fraction  uniform |err|  uniform signed  zipf z=2 |err|  zipf z=2 signed")
	for i, f := range fracs {
		t.Logf("%.3f     %.3f          %.3f           %.3f           %.3f", f, uniAbs[i], uniSigned[i], zipfAbs[i], zipfSigned[i])
		if uniAbs[i] > 0.01 {
			t.Errorf("at %.2f: uniform work should make dne ~exact, |err| = %g", f, uniAbs[i])
		}
		if math.Abs(zipfSigned[i]) > 0.1 {
			t.Errorf("at %.2f: dne should be ~unbiased under random orders, signed err = %g", f, zipfSigned[i])
		}
	}
	if last, mid := zipfAbs[len(fracs)-1], zipfAbs[1]; last >= mid {
		t.Errorf("zipf |err| should collapse near completion: mid %g, final %g", mid, last)
	}
}
