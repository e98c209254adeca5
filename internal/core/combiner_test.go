package core

import (
	"math"
	"testing"
)

// combState builds a minimal State with the given counters and one active
// pipeline so the combiner has a segment to tag.
func combState(curr, lb, ub, ubTight int64, dneFrac float64) *State {
	// One driver whose consumption ratio is dneFrac of its total.
	total := 1000.0
	return &State{
		Curr:    curr,
		LB:      lb,
		UB:      ub,
		UBTight: ubTight,
		Drivers: []DriverState{{Returned: int64(dneFrac * total), Total: total}},
		Pipelines: []PipelineState{
			{Work: curr, DriverReturned: int64(dneFrac * total), DriverTotal: total},
		},
	}
}

func TestSafeErrorBound(t *testing.T) {
	s := &State{Curr: 10, LB: 100, UB: 400}
	if got, want := SafeErrorBound(s), 2.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("SafeErrorBound = %v, want %v", got, want)
	}
	if got := SafeErrorBound(&State{LB: 0, UB: 10}); !math.IsInf(got, 1) {
		t.Fatalf("SafeErrorBound with LB=0 = %v, want +Inf", got)
	}
	// Equal bounds: guarantee collapses to exactness.
	if got := SafeErrorBound(&State{Curr: 5, LB: 50, UB: 50}); got != 1 {
		t.Fatalf("SafeErrorBound with LB=UB = %v, want 1", got)
	}
}

func TestLpSafeErrorBoundNeverWorseThanSafe(t *testing.T) {
	s := &State{Curr: 10, LB: 100, UB: 400, UBTight: 225}
	if got, want := LpSafeErrorBound(s), 1.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("LpSafeErrorBound = %v, want %v", got, want)
	}
	if LpSafeErrorBound(s) > SafeErrorBound(s) {
		t.Fatalf("LpSafeErrorBound %v exceeds SafeErrorBound %v",
			LpSafeErrorBound(s), SafeErrorBound(s))
	}
}

func TestLpSafeCoincidesWithSafeWithoutTightBound(t *testing.T) {
	s := combState(30, 100, 900, 900, 0.3)
	if got, want := (LpSafe{}).Estimate(s), (Safe{}).Estimate(s); got != want {
		t.Fatalf("lp-safe = %v, safe = %v; want equal when UBTight=UB", got, want)
	}
}

func TestLpSafeUsesTightBound(t *testing.T) {
	s := combState(30, 100, 900, 400, 0.3)
	want := 30.0 / math.Sqrt(100*400)
	if got := (LpSafe{}).Estimate(s); math.Abs(got-want) > 1e-12 {
		t.Fatalf("lp-safe = %v, want %v", got, want)
	}
}

func TestCombinerZeroHistoryIsSafeClamped(t *testing.T) {
	c := &Combiner{}
	s := combState(30, 100, 900, 900, 0.9)
	want := (Safe{}).Estimate(s)
	if got := c.Estimate(s); math.Abs(got-want) > 1e-12 {
		t.Fatalf("first combiner estimate = %v, want safe's %v", got, want)
	}
}

func TestCombinerSingleSampleStaysNearSafe(t *testing.T) {
	c := &Combiner{}
	s1 := combState(10, 100, 900, 900, 0.9)
	c.Estimate(s1)
	s2 := combState(30, 100, 900, 900, 0.9)
	got := c.Estimate(s2)
	safe := (Safe{}).Estimate(s2)
	// One scored sample out of MinHistory=8: the blend moves at most a
	// little off safe, and must stay inside the hard interval.
	lo, hi := s2.TightInterval()
	if got < lo || got > hi {
		t.Fatalf("combiner %v left hard interval [%v,%v]", got, lo, hi)
	}
	if math.Abs(math.Log(got/safe)) > 0.5 {
		t.Fatalf("combiner %v strayed far from safe %v on thin history", got, safe)
	}
}

func TestCombinerAllEstimatorsAgree(t *testing.T) {
	c := &Combiner{}
	// LB=UB makes dne-free progress exact: pmax = safe = Curr/LB, and the
	// driver fraction matches, so all candidates agree.
	var got, want float64
	for _, curr := range []int64{10, 20, 30, 40, 50} {
		s := combState(curr, 100, 100, 100, float64(curr)/100)
		got = c.Estimate(s)
		want = float64(curr) / 100
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("agreeing candidates: combiner = %v, want %v", got, want)
	}
}

func TestCombinerNeverExitsHardInterval(t *testing.T) {
	c := &Combiner{}
	// Adversarial flip-flopping: the dne fraction oscillates wildly between
	// samples while bounds tighten. Whatever the model concludes, every
	// output must stay inside [Curr/UBTight, Curr/LB].
	lb, ub := int64(50), int64(100000)
	for i := 1; i <= 200; i++ {
		curr := int64(i * 40)
		frac := 0.99
		if i%2 == 0 {
			frac = 0.01
		}
		if lb < curr {
			lb = curr
		}
		if shrunk := ub - int64(i)*400; shrunk > lb {
			ub = shrunk
		} else {
			ub = lb
		}
		tight := ub
		if i%3 == 0 && ub > lb {
			tight = lb + (ub-lb)/2
		}
		s := combState(curr, lb, ub, tight, frac)
		got := c.Estimate(s)
		lo, hi := s.TightInterval()
		if got < lo-1e-12 || got > hi+1e-12 {
			t.Fatalf("sample %d: combiner %v outside hard interval [%v,%v]", i, got, lo, hi)
		}
		if math.IsNaN(got) || got < 0 || got > 1 {
			t.Fatalf("sample %d: combiner emitted %v", i, got)
		}
	}
}

func TestCombinerDownWeightsInfeasibleCandidate(t *testing.T) {
	c := &Combiner{MinHistory: 4}
	// dne reads ~99% done from the start while the hard interval proves
	// progress is early (Curr far below LB): after warm-up the combiner must
	// sit much closer to safe than to dne.
	var s *State
	for i := 1; i <= 30; i++ {
		s = combState(int64(i*10), 1000, 40000, 40000, 0.99)
		c.Estimate(s)
	}
	got := c.Estimate(combState(310, 1000, 40000, 40000, 0.99))
	dne := (Dne{}).Estimate(s)
	safe := (Safe{}).Estimate(s)
	if math.Abs(got-safe) > math.Abs(got-dne) {
		t.Fatalf("combiner %v closer to infeasible dne %v than to safe %v", got, dne, safe)
	}
}

func TestCombinerSegmentTagging(t *testing.T) {
	// Two pipelines: once the first completes, activeSegment advances.
	s := &State{
		Curr: 10, LB: 10, UB: 100, UBTight: 100,
		Pipelines: []PipelineState{{Done: true}, {Done: false}},
	}
	if got := activeSegment(s); got != 1 {
		t.Fatalf("activeSegment = %d, want 1", got)
	}
	s.Pipelines[1].Done = true
	if got := activeSegment(s); got != 2 {
		t.Fatalf("all-done activeSegment = %d, want 2", got)
	}
}

func TestRegisteredEstimatorsUniqueAndFresh(t *testing.T) {
	a, b := RegisteredEstimators(), RegisteredEstimators()
	names := map[string]bool{}
	for i, e := range a {
		// The table's name column is the constructed value's Name.
		if got := EstimatorNames()[i]; got != e.Name() {
			t.Fatalf("table entry %d is named %q, constructs %q", i, got, e.Name())
		}
		if names[e.Name()] {
			t.Fatalf("duplicate registered estimator %q", e.Name())
		}
		names[e.Name()] = true
	}
	for _, want := range []string{"dne", "pmax", "safe", "lp-safe", "combiner"} {
		if !names[want] {
			t.Fatalf("estimator %q missing from registry", want)
		}
	}
	// Stateful estimators must be distinct instances per call.
	for i := range a {
		if _, ok := a[i].(*Combiner); ok && a[i] == b[i] {
			t.Fatalf("RegisteredEstimators shares stateful combiner across calls")
		}
	}
	// Lookup by name goes through the same table, in the order asked for.
	picked, err := NewEstimators("combiner", "dne")
	if err != nil || len(picked) != 2 || picked[0].Name() != "combiner" || picked[1].Name() != "dne" {
		t.Fatalf("NewEstimators(combiner, dne) = %v, %v", picked, err)
	}
	if _, err := NewEstimators("dne", "nope"); err == nil {
		t.Fatal("NewEstimators accepted an unregistered name")
	}
}

// SafeErrorBound returns safe's worst-case ratio-error guarantee at this
// instant, sqrt(UB/LB).
func SafeErrorBound(s *State) float64 {
	if s.LB <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(float64(s.UB) / float64(s.LB))
}

// LpSafeErrorBound returns lp-safe's worst-case ratio-error guarantee at
// this instant, sqrt(UBTight/LB).
func LpSafeErrorBound(s *State) float64 {
	if s.LB <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(float64(s.UBTight) / float64(s.LB))
}
