package core

import "math"

// RatioError is the paper's accuracy measure (Section 2.5): for actual
// progress a and estimate e, max(a/e, e/a); an estimator yields ratio error
// r when every instant's error is at most r.
func RatioError(actual, est float64) float64 {
	if actual <= 0 || est <= 0 {
		return math.Inf(1)
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}

// MaxRatioError returns the worst ratio error over a series.
func MaxRatioError(pts []Point) float64 {
	worst := 1.0
	for _, p := range pts {
		if r := RatioError(p.Actual, p.Est); r > worst {
			worst = r
		}
	}
	return worst
}

// MaxAbsError returns the worst absolute error |est - actual| over a series
// (the metric of the paper's Table 1, as a fraction of total progress).
func MaxAbsError(pts []Point) float64 {
	var worst float64
	for _, p := range pts {
		if d := math.Abs(p.Est - p.Actual); d > worst {
			worst = d
		}
	}
	return worst
}

// AvgAbsError returns the mean absolute error over a series.
func AvgAbsError(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += math.Abs(p.Est - p.Actual)
	}
	return sum / float64(len(pts))
}

// RatioErrorAfter returns the worst ratio error among samples with actual
// progress >= frac (e.g. Figure 6 reads the error after 30% of execution).
func RatioErrorAfter(pts []Point, frac float64) float64 {
	worst := 1.0
	for _, p := range pts {
		if p.Actual >= frac {
			if r := RatioError(p.Actual, p.Est); r > worst {
				worst = r
			}
		}
	}
	return worst
}
