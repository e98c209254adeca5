package core

import (
	"testing"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
)

func TestDneDynamicAdaptsToStablePerTupleCost(t *testing.T) {
	// Every R1 tuple joins exactly 3 R2 rows: per-tuple work is constant at
	// 4 but far from 1. Plain dne is exact here too (uniform), but
	// dne-dynamic must also be exact, having learned the per-tuple cost.
	n := int64(500)
	r1 := intRel("r1", "a", seq(n))
	var r2vals []int64
	for i := int64(0); i < n; i++ {
		r2vals = append(r2vals, i, i, i)
	}
	r2 := intRel("r2", "b", r2vals)
	j, _ := example1Plan(r1, r2, nil, nil, true)
	m := NewMonitor(j, 7, DneDynamic{}, Dne{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	dyn := m.SeriesAt(0)
	if worst := MaxAbsError(dyn); worst > 0.03 {
		t.Errorf("dne-dynamic max abs err = %.4f on constant per-tuple cost", worst)
	}
}

func TestDneDynamicVsDneOnLateRamp(t *testing.T) {
	// Work per tuple is 1 for the first half and 11 for the second half
	// (ramp). After the ramp begins, dynamic dne re-learns the average and
	// converges; plain dne keeps using the driver fraction. Both must stay
	// within [0, 1] and dynamic should be at least as good overall.
	n := 600
	r1 := intRel("r1", "a", seq(int64(n)))
	var r2vals []int64
	for i := n / 2; i < n; i++ {
		for k := 0; k < 10; k++ {
			r2vals = append(r2vals, int64(i))
		}
	}
	r2 := intRel("r2", "b", r2vals)
	j, _ := example1Plan(r1, r2, nil, nil, true)
	m := NewMonitor(j, 9, DneDynamic{}, Dne{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	dyn, plain := m.SeriesAt(0), m.SeriesAt(1)
	for _, p := range append(append([]Point{}, dyn...), plain...) {
		if p.Est < 0 || p.Est > 1 {
			t.Fatalf("estimate %v out of range", p.Est)
		}
	}
	if AvgAbsError(dyn) > AvgAbsError(plain)+1e-9 {
		t.Errorf("dynamic avg err %.4f should not exceed plain dne %.4f",
			AvgAbsError(dyn), AvgAbsError(plain))
	}
}

func TestDneDynamicMultiPipeline(t *testing.T) {
	// Hash join: build pipeline finishes first and is pinned exactly;
	// dynamic dne must account for both pipelines.
	r1 := intRel("r1", "a", seq(400))
	r2 := intRel("r2", "b", seq(400))
	b, p := exec.NewScan(r1), exec.NewScan(r2)
	hj := exec.NewHashJoin(b, p,
		[]expr.Expr{expr.NewCol(b.Schema(), "r1", "a")},
		[]expr.Expr{expr.NewCol(p.Schema(), "r2", "b")}, exec.InnerJoin)
	hj.Linear = true
	m := NewMonitor(hj, 13, DneDynamic{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	pts := m.SeriesAt(0)
	if worst := MaxAbsError(pts); worst > 0.25 {
		t.Errorf("dne-dynamic max err %.4f on a uniform hash join", worst)
	}
	last := pts[len(pts)-1]
	if RatioError(last.Actual, last.Est) > 1.05 {
		t.Errorf("dne-dynamic should converge, final (%.3f, %.3f)", last.Actual, last.Est)
	}
}
