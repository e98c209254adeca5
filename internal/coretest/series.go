package coretest

import (
	"fmt"
	"math"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
)

// Series is a recorded progress series plus the run facts needed to judge
// it. Unlike CheckProgressInvariants (which drives the execution itself and
// reports through testing.TB), Series checks samples recorded by any
// monitor — inline or async, complete or killed mid-run — and returns the
// first violation as an error, so the chaos harness can embed the replay
// seed and schedule in the message.
type Series struct {
	Label string
	// Names are the estimator names, parallel to each sample's Estimates.
	Names []string
	// Samples are the recorded observations, in capture order.
	Samples []core.Sample
	// Completed reports the run reached EOF; Total is then total(Q).
	// For aborted runs Total is the call count at abort — still a lower
	// bound on the run's hypothetical total, which is all the partial-run
	// checks use it for.
	Completed bool
	Total     int64
	// Mu is the paper's mu for the execution (used only when Completed).
	Mu float64
}

// SeriesOf wraps the samples a monitor recorded over a run of root that
// reached EOF (ss.Total is total(Q)), ready for Check.
func SeriesOf(label string, ss *core.SampleSet, root exec.Operator) *Series {
	names := make([]string, len(ss.Estimators))
	for i, e := range ss.Estimators {
		names[i] = e.Name()
	}
	return &Series{Label: label, Names: names, Samples: ss.Samples, Completed: true, Total: ss.Total(), Mu: core.Mu(root)}
}

// estIndex returns the sample index of the named estimator, or -1.
func (s *Series) estIndex(name string) int {
	for i, n := range s.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Check verifies the paper's guarantees over the recorded samples and
// returns the first violation:
//
//   - structural, at every sample (even of killed runs): 1 <= LB <= UB,
//     Calls <= UB, Calls strictly increasing (every sampler drops an
//     instant it has already recorded), LB non-decreasing, UB
//     non-increasing, every estimate within [0, 1];
//   - for aborted runs: UB >= Total at every sample (the abort-time call
//     count lower-bounds the run's true total, which UB must dominate);
//   - when Completed, at every sample: LB <= Total <= UB (hard bounds),
//     progress <= pmax (Property 4), pmax ratio error <= mu (Theorem 5),
//     safe ratio error <= sqrt(UB/LB) (Theorem 6);
//   - when Completed, at the final sample: Calls == Total, pmax exactly
//     1.0, and — only when the final bounds have pinned (LB == UB) — dne
//     and safe at 1.0 too. On rescan-heavy plans whose bounds never pin
//     (e.g. the cross-rescan corpus entry) dne and safe legitimately end
//     below 1.0; only pmax's terminal 1.0 is unconditional.
func (s *Series) Check() error {
	fail := func(i int, format string, args ...any) error {
		return fmt.Errorf("%s: sample %d/%d: %s", s.Label, i, len(s.Samples), fmt.Sprintf(format, args...))
	}
	dneIdx, pmaxIdx, safeIdx := s.estIndex("dne"), s.estIndex("pmax"), s.estIndex("safe")
	for i, sm := range s.Samples {
		if sm.LB < 1 || sm.LB > sm.UB {
			return fail(i, "bounds [%d,%d] malformed", sm.LB, sm.UB)
		}
		if sm.Calls > sm.UB {
			return fail(i, "Curr %d exceeds UB %d", sm.Calls, sm.UB)
		}
		if sm.UB < s.Total {
			return fail(i, "UB %d below observed calls %d", sm.UB, s.Total)
		}
		if i > 0 {
			prev := s.Samples[i-1]
			if sm.Calls <= prev.Calls {
				return fail(i, "Calls %d not after %d", sm.Calls, prev.Calls)
			}
			if sm.LB < prev.LB {
				return fail(i, "LB decreased %d -> %d", prev.LB, sm.LB)
			}
			if sm.UB > prev.UB {
				return fail(i, "UB increased %d -> %d", prev.UB, sm.UB)
			}
		}
		for j, est := range sm.Estimates {
			if est < 0 || est > 1 || math.IsNaN(est) {
				return fail(i, "estimate %s = %v out of [0,1]", s.Names[j], est)
			}
		}
		if !s.Completed {
			continue
		}
		if sm.LB > s.Total || sm.UB < s.Total {
			return fail(i, "bounds [%d,%d] miss total %d", sm.LB, sm.UB, s.Total)
		}
		if sm.Calls == 0 {
			continue
		}
		actual := float64(sm.Calls) / float64(s.Total)
		if pmaxIdx >= 0 {
			pmax := sm.Estimates[pmaxIdx]
			if pmax < actual-1e-9 {
				return fail(i, "pmax %v underestimates progress %v", pmax, actual)
			}
			if r := core.RatioError(actual, pmax); r > s.Mu+1e-9 {
				return fail(i, "pmax ratio error %v exceeds mu %v", r, s.Mu)
			}
		}
		if safeIdx >= 0 {
			bound := math.Sqrt(float64(sm.UB) / float64(sm.LB))
			if r := core.RatioError(actual, sm.Estimates[safeIdx]); r > bound*(1+1e-9) {
				return fail(i, "safe ratio error %v exceeds sqrt(UB/LB) %v", r, bound)
			}
		}
	}
	if !s.Completed || len(s.Samples) == 0 {
		return nil
	}
	last := len(s.Samples) - 1
	fin := s.Samples[last]
	if fin.Calls != s.Total {
		return fail(last, "final sample at %d calls, total is %d", fin.Calls, s.Total)
	}
	if pmaxIdx >= 0 && fin.Estimates[pmaxIdx] != 1.0 {
		return fail(last, "pmax %v != 1.0 at EOF", fin.Estimates[pmaxIdx])
	}
	if fin.LB == fin.UB {
		for _, idx := range []int{dneIdx, safeIdx} {
			if idx >= 0 && fin.Estimates[idx] < 1-1e-9 {
				return fail(last, "%s = %v below 1.0 at EOF with pinned bounds", s.Names[idx], fin.Estimates[idx])
			}
		}
	}
	return nil
}
