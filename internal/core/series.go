package core

import (
	"fmt"
	"math"
	"slices"
)

// Series is a recorded progress series plus the run facts needed to judge
// it. It is the one checker of the paper's per-instant guarantees: it judges
// samples recorded by any monitor — inline or async, complete or killed
// mid-run — and every harness that holds a run to the guarantees (the
// invariant corpus, chaos, the LIMIT fuzz family, the session stress test,
// the evaluation matrix) goes through it.
type Series struct {
	Label string
	// Names are the estimator names, parallel to each sample's Estimates.
	Names []string
	// Samples are the recorded observations, in capture order.
	Samples []Sample
	// Completed reports the run reached EOF; Total is then total(Q).
	// For aborted runs Total is the call count at abort — still a lower
	// bound on the run's hypothetical total, which is all the partial-run
	// checks use it for.
	Completed bool
	Total     int64
	// Mu is the paper's mu for the execution (used only when Completed).
	Mu float64
}

// SeriesOf wraps the samples a monitor recorded over a run that reached EOF
// (ss.Total is total(Q)), ready for Check; Mu is the monitor's own
// (SampleSet.Mu).
func SeriesOf(label string, ss *SampleSet) *Series {
	names := make([]string, len(ss.Estimators))
	for i, e := range ss.Estimators {
		names[i] = e.Name()
	}
	return &Series{Label: label, Names: names, Samples: ss.Samples, Completed: true, Total: ss.Total(), Mu: ss.Mu()}
}

// Rule names one guarantee a Series is held to.
type Rule string

// The rules, in the order they are tested at each sample. The structural and
// bound rules hold at every sample of every run, killed ones included; the
// estimator rules and RuleLBTotal need total(Q), so they apply to completed
// runs only; the final rules judge a completed run's last sample. On
// rescan-heavy plans whose bounds never pin (e.g. the cross-rescan corpus
// entry) dne and safe legitimately end below 1.0, so only pmax's terminal 1.0
// is unconditional.
const (
	RuleCallsIncrease   Rule = "calls-increase"    // Calls strictly increasing: every sampler drops an instant it has recorded
	RuleBoundsOrder     Rule = "bounds-order"      // 1 <= LB <= UB
	RuleCurrUB          Rule = "curr-le-ub"        // Curr <= UB
	RuleUBTotal         Rule = "ub-ge-total"       // UB >= Total
	RuleLBMonotone      Rule = "lb-monotone"       // LB never falls
	RuleUBMonotone      Rule = "ub-monotone"       // UB never rises
	RuleUBTightMonotone Rule = "ubtight-monotone"  // UBTight never rises
	RuleCurrLB          Rule = "curr-le-lb"        // Curr <= LB: bounds and Curr come from one read
	RuleCurrUBTight     Rule = "curr-le-ubtight"   // Curr <= UBTight
	RuleUBTightRange    Rule = "ubtight-in-bounds" // LB <= UBTight <= UB
	RuleUBTightTotal    Rule = "ubtight-ge-total"  // UBTight >= Total
	RuleEstimateRange   Rule = "estimate-range"    // every estimate within [0, 1]
	RuleLBTotal         Rule = "lb-le-total"       // completed: LB <= total(Q)
	RulePmaxProgress    Rule = "pmax-ge-progress"  // completed: progress <= pmax (Property 4)
	RulePmaxMu          Rule = "pmax-within-mu"    // completed: pmax ratio error <= mu (Theorem 5)
	RuleSafeBound       Rule = "safe-within-sqrt"  // completed: safe ratio error <= sqrt(UB/LB) (Theorem 6)
	RuleFinalCalls      Rule = "final-at-total"    // completed: the last sample is at Calls == total(Q)
	RuleFinalPmax       Rule = "final-pmax-one"    // completed: pmax is exactly 1.0 at the last sample
	RuleFinalPinned     Rule = "final-pinned-one"  // completed, last sample LB == UB: dne and safe at 1.0
)

// violation is one sample breaking one rule.
type violation struct {
	sample int
	rule   Rule
	err    error
}

// Check returns the first violation, or nil when the series keeps every rule.
func (s *Series) Check() error {
	if vs := s.violations(); len(vs) > 0 {
		return vs[0].err
	}
	return nil
}

// Count is the checker's counting form: the number of samples that break at
// least one of rules (one rule's count, or a group's).
func (s *Series) Count(rules ...Rule) int {
	n, last := 0, -1
	for _, v := range s.violations() {
		if v.sample != last && slices.Contains(rules, v.rule) {
			n, last = n+1, v.sample
		}
	}
	return n
}

// violations walks the series once and returns every broken rule, in sample
// order and, within a sample, in rule order.
func (s *Series) violations() []violation {
	var out []violation
	fail := func(i int, r Rule, format string, args ...any) {
		err := fmt.Errorf("%s: sample %d/%d: %s: %s", s.Label, i, len(s.Samples), r, fmt.Sprintf(format, args...))
		out = append(out, violation{sample: i, rule: r, err: err})
	}
	dneIdx, pmaxIdx, safeIdx := s.estIndex("dne"), s.estIndex("pmax"), s.estIndex("safe")
	for i, sm := range s.Samples {
		if i > 0 && sm.Calls <= s.Samples[i-1].Calls {
			fail(i, RuleCallsIncrease, "Calls %d not after %d", sm.Calls, s.Samples[i-1].Calls)
		}
		if sm.LB < 1 || sm.LB > sm.UB {
			fail(i, RuleBoundsOrder, "bounds [%d,%d] malformed", sm.LB, sm.UB)
		}
		if sm.Calls > sm.UB {
			fail(i, RuleCurrUB, "Curr %d exceeds UB %d", sm.Calls, sm.UB)
		}
		if sm.UB < s.Total {
			fail(i, RuleUBTotal, "UB %d below total %d", sm.UB, s.Total)
		}
		if i > 0 {
			prev := s.Samples[i-1]
			if sm.LB < prev.LB {
				fail(i, RuleLBMonotone, "LB decreased %d -> %d", prev.LB, sm.LB)
			}
			if sm.UB > prev.UB {
				fail(i, RuleUBMonotone, "UB increased %d -> %d", prev.UB, sm.UB)
			}
			if sm.UBTight > prev.UBTight {
				fail(i, RuleUBTightMonotone, "UBTight increased %d -> %d", prev.UBTight, sm.UBTight)
			}
		}
		if sm.Calls > sm.LB {
			fail(i, RuleCurrLB, "Curr %d exceeds LB %d", sm.Calls, sm.LB)
		}
		if sm.Calls > sm.UBTight {
			fail(i, RuleCurrUBTight, "Curr %d exceeds UBTight %d", sm.Calls, sm.UBTight)
		}
		if sm.UBTight < sm.LB || sm.UBTight > sm.UB {
			fail(i, RuleUBTightRange, "UBTight %d outside [%d,%d]", sm.UBTight, sm.LB, sm.UB)
		}
		if sm.UBTight < s.Total {
			fail(i, RuleUBTightTotal, "UBTight %d below total %d", sm.UBTight, s.Total)
		}
		for j, est := range sm.Estimates {
			if est < 0 || est > 1 || math.IsNaN(est) {
				fail(i, RuleEstimateRange, "estimate %s = %v out of [0,1]", s.Names[j], est)
			}
		}
		if !s.Completed {
			continue
		}
		if sm.LB > s.Total {
			fail(i, RuleLBTotal, "LB %d above total %d", sm.LB, s.Total)
		}
		if sm.Calls == 0 {
			continue
		}
		actual := float64(sm.Calls) / float64(s.Total)
		if pmaxIdx >= 0 {
			pmax := sm.Estimates[pmaxIdx]
			if pmax < actual-1e-9 {
				fail(i, RulePmaxProgress, "pmax %v underestimates progress %v", pmax, actual)
			}
			if r := RatioError(actual, pmax); r > s.Mu+1e-9 {
				fail(i, RulePmaxMu, "pmax ratio error %v exceeds mu %v", r, s.Mu)
			}
		}
		if safeIdx >= 0 {
			bound := math.Sqrt(float64(sm.UB) / float64(sm.LB))
			if r := RatioError(actual, sm.Estimates[safeIdx]); r > bound*(1+1e-9) {
				fail(i, RuleSafeBound, "safe ratio error %v exceeds sqrt(UB/LB) %v", r, bound)
			}
		}
	}
	if !s.Completed || len(s.Samples) == 0 {
		return out
	}
	last := len(s.Samples) - 1
	fin := s.Samples[last]
	if fin.Calls != s.Total {
		fail(last, RuleFinalCalls, "final sample at %d calls, total is %d", fin.Calls, s.Total)
	}
	if pmaxIdx >= 0 && fin.Estimates[pmaxIdx] != 1.0 {
		fail(last, RuleFinalPmax, "pmax %v != 1.0 at EOF", fin.Estimates[pmaxIdx])
	}
	if fin.LB == fin.UB {
		for _, idx := range []int{dneIdx, safeIdx} {
			if idx >= 0 && fin.Estimates[idx] < 1-1e-9 {
				fail(last, RuleFinalPinned, "%s = %v below 1.0 at EOF with pinned bounds", s.Names[idx], fin.Estimates[idx])
			}
		}
	}
	return out
}

// estIndex returns the sample index of the named estimator, or -1.
func (s *Series) estIndex(name string) int {
	return slices.Index(s.Names, name)
}
