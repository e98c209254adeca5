package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {95, 38.5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v, want 7", got)
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 110, false); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("lower-is-better 100→110 = %v, want +0.10", got)
	}
	if got := relDiff(100, 110, true); math.Abs(got+0.10) > 1e-9 {
		t.Errorf("higher-is-better 100→110 = %v, want -0.10", got)
	}
	if got := relDiff(0, 5, false); got != 0 {
		t.Errorf("relDiff from 0 = %v, want 0", got)
	}
}
