package core

import "math"

// LpSafe is the safe estimator computed against the pessimistic upper bound:
// Curr/sqrt(LB*UBTight). Its worst-case ratio error is sqrt(UBTight/LB) —
// never worse than safe's sqrt(UB/LB), and strictly better wherever a
// degree-sequence join bound tightened the plan's UB. On plans without
// pessimistic bounds it coincides with Safe.
type LpSafe struct{}

// Name implements Estimator.
func (LpSafe) Name() string { return "lp-safe" }

// Estimate implements Estimator.
func (LpSafe) Estimate(s *State) float64 {
	if s.LB <= 0 || s.UBTight <= 0 {
		return 0
	}
	g := math.Sqrt(float64(s.LB)) * math.Sqrt(float64(s.UBTight))
	return clampF(float64(s.Curr)/g, 0, 1)
}

// Combiner is the per-segment statistical combiner in the spirit of König,
// Ding & Chaudhuri's "A Statistical Approach Towards Robust Progress
// Estimation": it runs dne, pmax and safe side by side, maintains an online
// error model for each, and emits a confidence-weighted geometric blend.
//
// The error model needs no oracle. Bounds only tighten over a run (LB rises,
// UB falls), so at any instant the *current* bounds retroactively constrain
// every past sample: the true progress at an instant with curr_j calls lies
// in [curr_j/UB_now, min(1, curr_j/LB_now)]. Each candidate's past estimates
// are scored by their log-ratio distance to that shrinking interval's
// geometric midpoint — the interval's minimax-ratio point, which converges
// on the true fraction as the bounds close. Scoring against the midpoint
// rather than mere interval membership matters: pmax rides the interval's
// upper edge by construction and would otherwise never accumulate error, and
// a candidate that keeps landing far from the midpoint (dne fooled by skew,
// pmax without statistics) is exponentially down-weighted.
//
// The model is kept per plan segment: samples are tagged with the active
// pipeline (the first unfinished one, in Pipelines order), and history from
// the current segment outweighs earlier segments — estimator pathologies
// are usually segment-local (dne's skew-blindness bites during a join's
// probe pipeline, not the build). With thin history the blend degrades
// gracefully to safe, the worst-case-optimal choice, and the blend replaces
// safe at all only when some candidate holds a decisive (Margin-sized)
// retrospective advantage over it; the output is always
// clamped into the hard interval [Curr/UBTight, Curr/LB], so the combiner
// inherits the bounds' guarantee no matter what the model believes.
//
// Combiner is stateful — use a fresh value per monitored execution.
type Combiner struct {
	// Beta is the weight sharpness: candidate weights are
	// exp(-Beta * meanLogError) (default 6).
	Beta float64
	// Window is the number of recent samples the error model keeps
	// (default 64; bounds per-sample cost on long runs).
	Window int
	// MinHistory is the number of scored samples at which the model reaches
	// full confidence; below it the blend leans toward safe (default 8).
	MinHistory int
	// Decay is the per-sample recency decay of the error model (default
	// 0.95).
	Decay float64
	// CrossSegment is the weight of history from earlier segments relative
	// to the current one (default 0.25).
	CrossSegment float64
	// Margin is the decisive-advantage threshold: the blend replaces safe
	// only when some candidate's mean retrospective log error undercuts
	// safe's by more than Margin (default 0.05, i.e. a ~5% ratio advantage).
	// Below the threshold the combiner emits safe unchanged — a blend that
	// cannot demonstrably beat the worst-case-optimal estimator must not
	// dilute it.
	Margin float64

	hist []combSample
}

// combCandidates is the candidate set the combiner blends. Order is fixed;
// safe must be last (it doubles as the thin-history fallback).
var combCandidates = [3]Estimator{Dne{}, Pmax{}, Safe{}}

// combSample is one scored observation: the instant, the segment that was
// active, and each candidate's estimate at that instant.
type combSample struct {
	curr int64
	seg  int
	ests [len(combCandidates)]float64
}

// Name implements Estimator.
func (*Combiner) Name() string { return "combiner" }

// activeSegment returns the index of the first unfinished pipeline (len when
// all are done — the tail counts as its own segment).
func activeSegment(s *State) int {
	for i, p := range s.Pipelines {
		if !p.Done {
			return i
		}
	}
	return len(s.Pipelines)
}

// combEps floors estimates before logs so a candidate emitting 0 is scored
// as "very wrong", not NaN.
const combEps = 1e-9

// Estimate implements Estimator.
func (c *Combiner) Estimate(s *State) float64 {
	beta := c.Beta
	if beta <= 0 {
		beta = 6
	}
	window := c.Window
	if window <= 0 {
		window = 64
	}
	minHist := c.MinHistory
	if minHist <= 0 {
		minHist = 8
	}
	decay := c.Decay
	if decay <= 0 || decay > 1 {
		decay = 0.95
	}
	cross := c.CrossSegment
	if cross <= 0 || cross > 1 {
		cross = 0.25
	}
	margin := c.Margin
	if margin <= 0 {
		margin = 0.05
	}

	seg := activeSegment(s)
	var ests [len(combCandidates)]float64
	for i, cand := range combCandidates {
		ests[i] = cand.Estimate(s)
	}
	safeEst := ests[len(ests)-1]

	// Score the window against the feasible intervals implied by the current
	// (tightest-so-far) bounds, each sample anchored at its interval's
	// geometric midpoint.
	var scores [len(combCandidates)]float64
	var norm, scored float64
	w := 1.0
	for j := len(c.hist) - 1; j >= 0 && s.LB > 0 && s.UBTight > 0; j-- {
		h := c.hist[j]
		sw := w
		w *= decay
		if h.seg != seg {
			sw *= cross
		}
		if h.curr <= 0 {
			continue
		}
		lo := float64(h.curr) / float64(s.UBTight)
		hi := float64(h.curr) / float64(s.LB)
		if hi > 1 {
			hi = 1
		}
		mid := math.Sqrt(lo * hi)
		if mid < combEps {
			continue
		}
		for i := range combCandidates {
			scores[i] += sw * math.Abs(math.Log(ests2(h.ests[i])/mid))
		}
		norm += sw
		scored++
	}

	var combined float64
	var mean [len(combCandidates)]float64
	best := math.Inf(1)
	if norm > 0 {
		for i := range combCandidates {
			mean[i] = scores[i] / norm
			if mean[i] < best {
				best = mean[i]
			}
		}
	}
	safeMean := mean[len(mean)-1]
	if norm <= 0 || best >= safeMean-margin {
		// No candidate beats safe decisively: emit safe unchanged, so the
		// combiner's worst-case error never exceeds safe's on regimes where
		// the model has nothing better to offer.
		combined = safeEst
	} else {
		var wsum, lsum float64
		for i := range combCandidates {
			wi := math.Exp(-beta * (mean[i] - best))
			wsum += wi
			lsum += wi * math.Log(math.Max(ests[i], combEps))
		}
		blend := lsum / wsum
		conf := scored / float64(minHist)
		if conf > 1 {
			conf = 1
		}
		combined = math.Exp(conf*blend + (1-conf)*math.Log(math.Max(safeEst, combEps)))
	}

	// Record after scoring: a sample never scores itself.
	c.hist = append(c.hist, combSample{curr: s.Curr, seg: seg, ests: ests})
	if len(c.hist) > window {
		c.hist = c.hist[len(c.hist)-window:]
	}

	lo, hi := s.TightInterval()
	return clampF(combined, lo, hi)
}

// ests2 floors an estimate for interval scoring.
func ests2(e float64) float64 {
	if e < combEps {
		return combEps
	}
	return e
}
