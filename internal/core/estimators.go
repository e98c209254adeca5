package core

import (
	"fmt"
	"math"
)

// Estimator maps an execution State to a progress estimate in [0, 1].
// Estimators may keep internal history across calls within one execution
// (the heuristic combiners of Section 6.4 do); create a fresh value per
// monitored execution.
type Estimator interface {
	// Name identifies the estimator in reports.
	Name() string
	// Estimate returns the estimated fraction of total(Q) performed.
	Estimate(s *State) float64
}

// estimatorTable is the registry: one (name, constructor) entry per
// estimator the package ships, in the stable order reports list them. It is
// the only place a name maps to a constructor — sessions, the public
// EstimatorKind surface, sqlrun's help text, the evaluation matrix, the
// benchmark and the documentation lint all go through the three functions
// below. The name is the constructed value's Name (held by
// TestRegisteredEstimatorsUniqueAndFresh), so looking one up constructs
// nothing. Constructors return a fresh value every call: stateful
// estimators (VarSwitch, Combiner) must never be shared across executions.
var estimatorTable = []struct {
	name string
	mk   func() Estimator
}{
	{"trivial", func() Estimator { return Trivial{} }},
	{"dne", func() Estimator { return Dne{} }},
	{"dne-dynamic", func() Estimator { return DneDynamic{} }},
	{"dne-constrained", func() Estimator { return ConstrainedDne{} }},
	{"pmax", func() Estimator { return Pmax{} }},
	{"safe", func() Estimator { return Safe{} }},
	{"lp-safe", func() Estimator { return LpSafe{} }},
	{"hybrid-mu", func() Estimator { return MuSwitch{} }},
	{"hybrid-var", func() Estimator { return &VarSwitch{} }},
	{"combiner", func() Estimator { return &Combiner{} }},
}

// RegisteredEstimators returns one fresh instance of every registered
// estimator, in table order — the full suite for one monitored execution,
// and what cmd/doclint checks ESTIMATORS.md against.
func RegisteredEstimators() []Estimator {
	out := make([]Estimator, len(estimatorTable))
	for i, e := range estimatorTable {
		out[i] = e.mk()
	}
	return out
}

// EstimatorNames lists the registered names, in table order.
func EstimatorNames() []string {
	names := make([]string, len(estimatorTable))
	for i, e := range estimatorTable {
		names[i] = e.name
	}
	return names
}

// NewEstimators returns a fresh instance of each named estimator, in the
// order given; an unregistered name is an error.
func NewEstimators(names ...string) ([]Estimator, error) {
	out := make([]Estimator, len(names))
names:
	for i, name := range names {
		for _, e := range estimatorTable {
			if e.name == name {
				out[i] = e.mk()
				continue names
			}
		}
		return nil, fmt.Errorf("unknown estimator %q (registered: %v)", name, EstimatorNames())
	}
	return out, nil
}

// Trivial is the degenerate estimator the paper uses as the baseline of
// futility: its interval guarantee is (0, 1) and its point estimate is the
// midpoint.
type Trivial struct{}

// Name implements Estimator.
func (Trivial) Name() string { return "trivial" }

// Estimate implements Estimator.
func (Trivial) Estimate(*State) float64 { return 0.5 }

// Dne is the driver-node estimator of prior work ([5]'s gnm, [13]'s
// dominant-tuple estimator; Definition 1): the fraction of driver-node
// tuples consumed, aggregated over all driver nodes as sum(k_i)/sum(N_i).
// Expected to be exact under random arrival orders (Theorem 3); can be
// arbitrarily wrong under adversarial orders with high per-tuple variance
// (Section 3).
type Dne struct{}

// Name implements Estimator.
func (Dne) Name() string { return "dne" }

// Estimate implements Estimator.
func (Dne) Estimate(s *State) float64 {
	var k, n float64
	for _, d := range s.Drivers {
		k += float64(d.Returned)
		n += d.Total
	}
	if n <= 0 {
		return 0
	}
	return clampF(k/n, 0, 1)
}

// DneDynamic is the refinement used by the prior work the paper reviews
// ([5]'s estimator under the GetNext model): each pipeline's total work is
// estimated as its driver total scaled by the *observed* average work per
// driver tuple, refreshed continuously, and progress is work done over the
// summed estimates. It inherits dne's assumptions — the observed per-tuple
// average must predict the future — and fails the same adversarial orders,
// but adapts faster than plain dne when per-tuple costs are stable yet far
// from one.
type DneDynamic struct{}

// Name implements Estimator.
func (DneDynamic) Name() string { return "dne-dynamic" }

// Estimate implements Estimator.
func (DneDynamic) Estimate(s *State) float64 {
	var done, total float64
	for _, p := range s.Pipelines {
		done += float64(p.Work)
		switch {
		case p.Done:
			total += float64(p.Work)
		case p.DriverReturned > 0 && p.DriverTotal > 0:
			avg := float64(p.Work) / float64(p.DriverReturned)
			est := p.DriverTotal * avg
			if est < float64(p.Work) {
				est = float64(p.Work)
			}
			total += est
		default:
			// Pipeline not started: fall back to plan-time estimates.
			total += p.EstWork
		}
	}
	if total <= 0 {
		return 0
	}
	return clampF(done/total, 0, 1)
}

// ConstrainedDne clamps dne into the hard progress interval
// [Curr/UB, Curr/LB], the refinement the paper applies when comparing
// estimators on scan-based plans (Section 5.4: "by constraining dne to be
// within the upper and lower bounds on the progress, dne also yields a
// ratio error of at most m+1").
type ConstrainedDne struct{}

// Name implements Estimator.
func (ConstrainedDne) Name() string { return "dne-constrained" }

// Estimate implements Estimator.
func (ConstrainedDne) Estimate(s *State) float64 {
	lo, hi := s.Interval()
	return clampF(Dne{}.Estimate(s), lo, hi)
}

// Pmax assumes the minimum possible remaining work: Curr/LB (Definition 3).
// It never underestimates (progress <= pmax, Property 4) and its ratio
// error is at most mu (Theorem 5).
type Pmax struct{}

// Name implements Estimator.
func (Pmax) Name() string { return "pmax" }

// Estimate implements Estimator.
func (Pmax) Estimate(s *State) float64 {
	if s.LB <= 0 {
		return 1
	}
	return clampF(float64(s.Curr)/float64(s.LB), 0, 1)
}

// Safe is the worst-case-optimal estimator Curr/sqrt(LB*UB) (Definition 5):
// its ratio error is at most sqrt(UB/LB), and no estimator can guarantee
// less in the worst case (Theorem 6).
type Safe struct{}

// Name implements Estimator.
func (Safe) Name() string { return "safe" }

// Estimate implements Estimator.
func (Safe) Estimate(s *State) float64 {
	if s.LB <= 0 || s.UB <= 0 {
		return 0
	}
	g := math.Sqrt(float64(s.LB)) * math.Sqrt(float64(s.UB))
	return clampF(float64(s.Curr)/g, 0, 1)
}

// MuSwitch is the hybrid sketched in Section 6.4: play safe, but switch to
// pmax when the running average work per input tuple is small (pmax's error
// is bounded by mu, and small observed mu is evidence — though, per Theorem
// 7, never proof — of small final mu).
type MuSwitch struct {
	// Threshold is the running-mu value at or below which pmax is used
	// (default 2, the bound below which pmax beats safe's typical spread).
	Threshold float64
}

// Name implements Estimator.
func (MuSwitch) Name() string { return "hybrid-mu" }

// Estimate implements Estimator.
func (m MuSwitch) Estimate(s *State) float64 {
	th := m.Threshold
	if th <= 0 {
		th = 2
	}
	if s.MuRunning() <= th {
		return Pmax{}.Estimate(s)
	}
	return Safe{}.Estimate(s)
}

// VarSwitch is the second Section 6.4 heuristic: observe the per-tuple work
// over a sliding window of recent samples; when its coefficient of
// variation is small the dne assumptions hold and dne is used, otherwise
// safe. It is stateful — use a fresh value per execution.
type VarSwitch struct {
	// Window is the number of recent samples considered (default 10).
	Window int
	// MaxCV is the coefficient-of-variation threshold (default 0.25).
	MaxCV float64

	hist []workPoint
}

type workPoint struct {
	leafConsumed int64
	curr         int64
}

// Name implements Estimator.
func (*VarSwitch) Name() string { return "hybrid-var" }

// Estimate implements Estimator.
func (v *VarSwitch) Estimate(s *State) float64 {
	window := v.Window
	if window <= 0 {
		window = 10
	}
	maxCV := v.MaxCV
	if maxCV <= 0 {
		maxCV = 0.25
	}
	v.hist = append(v.hist, workPoint{leafConsumed: s.LeafConsumed, curr: s.Curr})
	if len(v.hist) > window+1 {
		v.hist = v.hist[len(v.hist)-window-1:]
	}
	// Per-tuple work between consecutive samples.
	var works []float64
	for i := 1; i < len(v.hist); i++ {
		dk := v.hist[i].leafConsumed - v.hist[i-1].leafConsumed
		dc := v.hist[i].curr - v.hist[i-1].curr
		if dk > 0 {
			works = append(works, float64(dc)/float64(dk))
		}
	}
	if len(works) >= 3 && coefVar(works) <= maxCV {
		return Dne{}.Estimate(s)
	}
	return Safe{}.Estimate(s)
}

func coefVar(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return math.Inf(1)
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}
