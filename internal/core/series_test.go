package core

import "testing"

// checkerSeries is a completed run the checker accepts: total(Q) = 10, one
// mid-run sample (Curr 4, bounds [5, 20], UBTight 15; dne 0.4, pmax
// Curr/LB = 0.8, safe Curr/sqrt(LB*UB) = 0.4) and the pinned at-EOF one.
func checkerSeries() *Series {
	return &Series{
		Label: "hand-built", Names: []string{"dne", "pmax", "safe"},
		Completed: true, Total: 10, Mu: 2.5,
		Samples: []Sample{
			{Calls: 4, LB: 5, UB: 20, UBTight: 15, Estimates: []float64{0.4, 0.8, 0.4}},
			{Calls: 10, LB: 10, UB: 10, UBTight: 10, Estimates: []float64{1, 1, 1}},
		},
	}
}

var allRules = []Rule{
	RuleCallsIncrease, RuleBoundsOrder, RuleCurrUB, RuleUBTotal,
	RuleLBMonotone, RuleUBMonotone, RuleUBTightMonotone, RuleCurrLB, RuleCurrUBTight,
	RuleUBTightRange, RuleUBTightTotal, RuleEstimateRange, RuleLBTotal,
	RulePmaxProgress, RulePmaxMu, RuleSafeBound,
	RuleFinalCalls, RuleFinalPmax, RuleFinalPinned,
}

// TestSeriesCheckerRules breaks each rule once in a hand-built series: the
// checker must report that rule as the first violation, and the counting form
// must count exactly the one sample that breaks it. A clean series and an
// aborted one — whose LB may pass the abort-time call count, and which is not
// held to the estimator or final rules — pass. Run with -v, the log lists
// every rule the checker rejects.
func TestSeriesCheckerRules(t *testing.T) {
	for _, s := range []*Series{checkerSeries(), {
		Label: "aborted", Names: []string{"dne", "pmax", "safe"}, Total: 6,
		Samples: []Sample{
			{Calls: 4, LB: 5, UB: 20, UBTight: 15, Estimates: []float64{0.4, 0.8, 0.4}},
			{Calls: 6, LB: 8, UB: 18, UBTight: 12, Estimates: []float64{0.9, 0.75, 0.5}},
		},
	}} {
		if err := s.Check(); err != nil {
			t.Fatalf("%s series rejected: %v", s.Label, err)
		}
		if n := s.Count(allRules...); n != 0 {
			t.Fatalf("%s series: %d samples counted, want 0", s.Label, n)
		}
	}

	for _, c := range []struct {
		rule   Rule
		mutate func(s *Series)
	}{
		{RuleCallsIncrease, func(s *Series) { s.Samples = append(s.Samples[:1], s.Samples...) }},
		{RuleBoundsOrder, func(s *Series) { s.Samples[0].LB = 0 }},
		{RuleCurrUB, func(s *Series) { s.Samples[0].LB, s.Samples[0].UB, s.Samples[0].UBTight = 1, 3, 3 }},
		{RuleUBTotal, func(s *Series) { s.Samples[0].UB, s.Samples[0].UBTight = 9, 9 }},
		{RuleLBMonotone, func(s *Series) { s.Samples[1].LB = 4 }},
		{RuleUBMonotone, func(s *Series) { s.Samples[1].UB = 25 }},
		{RuleUBTightMonotone, func(s *Series) { s.Samples[1].UB, s.Samples[1].UBTight = 18, 16 }},
		{RuleCurrLB, func(s *Series) { s.Samples[0].LB = 3 }},
		{RuleCurrUBTight, func(s *Series) { s.Samples[0].UBTight = 3 }},
		{RuleUBTightRange, func(s *Series) { s.Samples[0].UBTight = 25 }},
		{RuleUBTightTotal, func(s *Series) { s.Samples[0].UBTight = 8 }},
		{RuleEstimateRange, func(s *Series) { s.Samples[0].Estimates[0] = 1.5 }},
		{RuleLBTotal, func(s *Series) { s.Samples[0].LB = 12 }},
		{RulePmaxProgress, func(s *Series) { s.Samples[0].Estimates[1] = 0.3 }},
		{RulePmaxMu, func(s *Series) { s.Mu = 1.5 }},
		{RuleSafeBound, func(s *Series) { s.Samples[0].Estimates[2] = 0.9 }},
		{RuleFinalCalls, func(s *Series) {
			s.Samples[1] = Sample{Calls: 9, LB: 9, UB: 10, UBTight: 10, Estimates: []float64{0.9, 1, 0.9}}
		}},
		{RuleFinalPmax, func(s *Series) { s.Samples[1].Estimates[1] = 1 - 1e-10 }},
		{RuleFinalPinned, func(s *Series) { s.Samples[1].Estimates[0] = 0.9 }},
	} {
		t.Run(string(c.rule), func(t *testing.T) {
			s := checkerSeries()
			c.mutate(s)
			if s.Check() == nil {
				t.Fatalf("series breaking %s accepted: total %d, mu %g, samples %+v", c.rule, s.Total, s.Mu, s.Samples)
			}
			if got := s.violations()[0].rule; got != c.rule {
				t.Fatalf("first violation is %s, want %s: %v", got, c.rule, s.Check())
			}
			if n := s.Count(c.rule); n != 1 {
				t.Fatalf("Count(%s) = %d, want 1", c.rule, n)
			}
			t.Log(s.Check())
		})
	}
}
