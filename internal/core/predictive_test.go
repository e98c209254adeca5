package core

import (
	"math"
	"math/rand"
	"testing"

	"sqlprogress/internal/datagen"
)

// This file holds the predictive-order analysis of Section 4.2, which only
// its tests use: an
// arrival order of driver tuples is c-predictive when, after half the
// tuples, the average work per tuple seen so far is within a factor c of
// the overall average. Under a c-predictive order dne's ratio error is at
// most c once half the input is consumed (Property 2), and at least half of
// all orders are 2-predictive (Theorem 4). TestThm4FractionAtLeastHalf
// checks both claims.

// MeanWork returns the average per-tuple work of a workload.
func MeanWork(work []int64) float64 {
	if len(work) == 0 {
		return 0
	}
	var sum int64
	for _, w := range work {
		sum += w
	}
	return float64(sum) / float64(len(work))
}

// IsCPredictive reports whether the arrival order given by work (work[i] =
// GetNext calls caused by the i-th arriving driver tuple) is c-predictive:
// from the halfway point onward, the running average work per tuple stays
// within a factor c of the overall mean. (The all-suffix reading of the
// paper's definition is the one under which Property 2 — dne's ratio error
// is at most c after half the input — actually holds; checking only the
// halfway point admits orders whose running average drifts later.)
func IsCPredictive(work []int64, c float64) bool {
	n := len(work)
	if n == 0 {
		return true
	}
	mu := MeanWork(work)
	if mu == 0 {
		return true
	}
	half := (n + 1) / 2
	var prefix int64
	for _, w := range work[:half] {
		prefix += w
	}
	for k := half; k <= n; k++ {
		avg := float64(prefix) / float64(k)
		if avg > c*mu || avg < mu/c {
			return false
		}
		if k < n {
			prefix += work[k]
		}
	}
	return true
}

// FractionCPredictive estimates, by Monte Carlo over seeded random
// permutations, the fraction of arrival orders of the workload that are
// c-predictive. Theorem 4 guarantees the result is at least 0.5 for c = 2.
func FractionCPredictive(work []int64, c float64, trials int, seed int64) float64 {
	if trials <= 0 || len(work) == 0 {
		return 1
	}
	r := rand.New(rand.NewSource(seed))
	perm := make([]int64, len(work))
	copy(perm, work)
	hits := 0
	for t := 0; t < trials; t++ {
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if IsCPredictive(perm, c) {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

// DneRatioErrorAfterHalf simulates a single-pipeline execution with the
// given per-tuple work sequence and returns dne's worst ratio error over
// the second half of the driver input — the quantity Property 2 bounds by c
// for a c-predictive order.
func DneRatioErrorAfterHalf(work []int64) float64 {
	n := len(work)
	if n == 0 {
		return 1
	}
	var total int64
	for _, w := range work {
		total += w
	}
	if total == 0 {
		return 1
	}
	half := (n + 1) / 2
	var done int64
	worst := 1.0
	for i, w := range work {
		done += w
		if i+1 < half {
			continue
		}
		actual := float64(done) / float64(total)
		dne := float64(i+1) / float64(n)
		if r := RatioError(actual, dne); r > worst {
			worst = r
		}
	}
	return worst
}

// WorkFromJoinFanouts builds a per-tuple work vector for the paper's
// canonical single pipeline (Figure 2): scanning one tuple costs 1 GetNext;
// a tuple passing the selection adds 1 (the sigma output) plus its join
// fan-out. fanout[i] < 0 means tuple i fails the selection.
func WorkFromJoinFanouts(fanout []int64) []int64 {
	out := make([]int64, len(fanout))
	for i, f := range fanout {
		w := int64(1)
		if f >= 0 {
			w += 1 + f
		}
		out[i] = w
	}
	return out
}

// thm4Seed seeds the permutations TestThm4FractionAtLeastHalf draws.
const thm4Seed = 42

// TestThm4FractionAtLeastHalf is Section 4.2's predictive-order result: for
// several per-tuple work distributions at least half of all arrival orders
// are 2-predictive (Theorem 4), and under a 2-predictive order dne's ratio
// error after half the input is about 2 at most (Property 2).
func TestThm4FractionAtLeastHalf(t *testing.T) {
	const n, trials = 5000, 300
	uniform, oneHeavy := make([]int64, n), make([]int64, n)
	for i := range uniform {
		uniform[i], oneHeavy[i] = 2, 1
	}
	oneHeavy[0] = n * 10
	workloads := []struct {
		name string
		work []int64
	}{
		{"uniform", uniform},
		{"zipf z=1", datagen.ZipfFrequencies(n, 3*n, 1)},
		{"zipf z=2", datagen.ZipfFrequencies(n, 3*n, 2)},
		{"one-heavy", oneHeavy},
	}
	t.Logf("workload   frac 2-predictive  worst dne ratio err after half")
	for _, w := range workloads {
		frac := FractionCPredictive(w.work, 2, trials, thm4Seed)
		// The worst dne error over the sampled 2-predictive orders.
		r := rand.New(rand.NewSource(thm4Seed + 1))
		worst := 1.0
		for trial := 0; trial < trials; trial++ {
			r.Shuffle(n, func(i, j int) { w.work[i], w.work[j] = w.work[j], w.work[i] })
			if IsCPredictive(w.work, 2) {
				worst = math.Max(worst, DneRatioErrorAfterHalf(w.work))
			}
		}
		t.Logf("%-9s  %.3f              %.3f", w.name, frac, worst)
		if frac < 0.5 {
			t.Errorf("%s: 2-predictive fraction %.3f < 0.5 violates Theorem 4", w.name, frac)
		}
		if worst > 2+1e-9 {
			t.Errorf("%s: dne ratio error %.3f after half a 2-predictive order violates Property 2", w.name, worst)
		}
	}
}
