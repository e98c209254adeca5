package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

func ints(vals ...int64) []sqlval.Value {
	out := make([]sqlval.Value, len(vals))
	for i, v := range vals {
		out[i] = sqlval.Int(v)
	}
	return out
}

func TestHistogramInvariants(t *testing.T) {
	vals := ints(5, 1, 3, 3, 9, 7, 3, 2, 8, 6)
	h := BuildHistogram(vals, 3)
	var sum int64
	for i, b := range h.Buckets {
		sum += b.Count
		if sqlval.Compare(b.Lo, b.Hi) > 0 {
			t.Errorf("bucket %d: lo > hi", i)
		}
		if i > 0 && sqlval.Compare(h.Buckets[i-1].Hi, b.Lo) > 0 {
			t.Errorf("bucket %d overlaps predecessor", i)
		}
		if b.Distinct < 1 || b.Distinct > b.Count {
			t.Errorf("bucket %d: distinct %d out of range (count %d)", i, b.Distinct, b.Count)
		}
	}
	if sum != h.NonNullCount() {
		t.Errorf("bucket counts sum to %d, want %d", sum, h.NonNullCount())
	}
	if h.Total != 10 || h.NullCount != 0 {
		t.Errorf("total=%d nulls=%d", h.Total, h.NullCount)
	}
}

func TestHistogramNulls(t *testing.T) {
	vals := append(ints(1, 2), sqlval.Null(), sqlval.Null())
	h := BuildHistogram(vals, 4)
	if h.NullCount != 2 || h.NonNullCount() != 2 {
		t.Errorf("nulls=%d nonnull=%d", h.NullCount, h.NonNullCount())
	}
	if got := h.EstimateEqual(sqlval.Null()); got != 0 {
		t.Errorf("EstimateEqual(NULL) = %g", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := BuildHistogram(nil, 4)
	if len(h.Buckets) != 0 || !h.MaxValue().IsNull() || !h.MinValue().IsNull() {
		t.Error("empty histogram should have no buckets and NULL extremes")
	}
	if est := h.EstimateRange(nil, nil, false, false); est.Est != 0 || est.UB != 0 {
		t.Errorf("empty range estimate = %+v", est)
	}
}

func TestHistogramEstimateEqualUniform(t *testing.T) {
	// 100 copies each of values 0..9; estimate for any value ≈ 100.
	var vals []sqlval.Value
	for v := int64(0); v < 10; v++ {
		for i := 0; i < 100; i++ {
			vals = append(vals, sqlval.Int(v))
		}
	}
	h := BuildHistogram(vals, 5)
	for v := int64(0); v < 10; v++ {
		est := h.EstimateEqual(sqlval.Int(v))
		if est < 50 || est > 200 {
			t.Errorf("EstimateEqual(%d) = %g, want ≈100", v, est)
		}
	}
	if got := h.EstimateEqual(sqlval.Int(99)); got != 0 {
		t.Errorf("EstimateEqual(99) = %g, want 0", got)
	}
}

func TestHistogramRangeBounds(t *testing.T) {
	var vals []sqlval.Value
	for v := int64(0); v < 1000; v++ {
		vals = append(vals, sqlval.Int(v))
	}
	h := BuildHistogram(vals, 10)
	lo, hi := sqlval.Int(100), sqlval.Int(399)
	est := h.EstimateRange(&lo, &hi, true, true)
	trueCount := int64(300)
	if est.LB > trueCount {
		t.Errorf("LB %d exceeds true count %d", est.LB, trueCount)
	}
	if est.UB < trueCount {
		t.Errorf("UB %d below true count %d", est.UB, trueCount)
	}
	if est.Est < 200 || est.Est > 400 {
		t.Errorf("Est = %g, want ≈300", est.Est)
	}
}

// Property: for random data and random ranges, LB <= true count <= UB and
// LB <= Est <= UB is not required, but bounds must bracket the truth.
func TestHistogramRangeBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(500) + 1
		vals := make([]sqlval.Value, n)
		raw := make([]int64, n)
		for i := range vals {
			raw[i] = r.Int63n(100)
			vals[i] = sqlval.Int(raw[i])
		}
		h := BuildHistogram(vals, 1+r.Intn(16))
		a, b := r.Int63n(100), r.Int63n(100)
		if a > b {
			a, b = b, a
		}
		lo, hi := sqlval.Int(a), sqlval.Int(b)
		est := h.EstimateRange(&lo, &hi, true, true)
		var truth int64
		for _, v := range raw {
			if v >= a && v <= b {
				truth++
			}
		}
		return est.LB <= truth && truth <= est.UB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Lossiness (the paper's Section 2.3 property): changing one value inside a
// bucket, without crossing its boundaries or changing its distinct count,
// produces an identical histogram.
func TestHistogramGeneratorIsLossy(t *testing.T) {
	mk := func(tweak int64) *schema.Relation {
		rel := schema.NewRelation("r", schema.New(schema.Column{Name: "a", Type: sqlval.KindInt}))
		for v := int64(0); v < 400; v++ {
			rel.Append(schema.Row{sqlval.Int(v * 10)})
		}
		// Row 210 holds value 2100 + tweak: both 2100+1 and 2100+2 fall
		// strictly inside the same bucket (not on a boundary) and are
		// absent elsewhere.
		rel.Rows[210][0] = sqlval.Int(2100 + tweak)
		return rel
	}
	g := HistogramGenerator{MaxBuckets: 16}
	h1 := g.Generate(mk(1)).Histogram(0)
	h2 := g.Generate(mk(2)).Histogram(0)
	if !h1.Equal(h2) {
		t.Fatal("single in-bucket tuple change altered the histogram; generator not lossy as constructed")
	}
}

func TestHistogramEqualDetectsDifferences(t *testing.T) {
	h1 := BuildHistogram(ints(1, 2, 3, 4), 2)
	h2 := BuildHistogram(ints(1, 2, 3, 5), 2)
	if h1.Equal(h2) {
		t.Error("histograms over different boundaries should differ")
	}
	if !h1.Equal(BuildHistogram(ints(1, 2, 3, 4), 2)) {
		t.Error("identical inputs should produce Equal histograms")
	}
}

func TestHistogramSkewedRuns(t *testing.T) {
	// One value dominating: equal values must not straddle buckets in a way
	// that breaks the count invariant.
	var vals []sqlval.Value
	for i := 0; i < 500; i++ {
		vals = append(vals, sqlval.Int(7))
	}
	vals = append(vals, ints(1, 2, 3)...)
	h := BuildHistogram(vals, 8)
	var sum int64
	for _, b := range h.Buckets {
		sum += b.Count
	}
	if sum != 503 {
		t.Errorf("bucket sum = %d, want 503", sum)
	}
	est := h.EstimateEqual(sqlval.Int(7))
	if est < 250 {
		t.Errorf("EstimateEqual(7) = %g, want large (true 500)", est)
	}
}

func TestDistinctEstimate(t *testing.T) {
	h := BuildHistogram(ints(1, 1, 2, 3, 3, 3, 4), 2)
	if d := h.DistinctEstimate(); d != 4 {
		t.Errorf("DistinctEstimate = %d, want 4", d)
	}
}

func TestHistogramGeneratorTableStats(t *testing.T) {
	rel := schema.NewRelation("r", schema.New(
		schema.Column{Name: "a", Type: sqlval.KindInt},
		schema.Column{Name: "b", Type: sqlval.KindString},
	))
	rel.Append(schema.Row{sqlval.Int(1), sqlval.String("x")})
	rel.Append(schema.Row{sqlval.Int(2), sqlval.String("y")})
	ts := HistogramGenerator{}.Generate(rel)
	if ts.RowCount != 2 || ts.Table != "r" {
		t.Errorf("stats header = %+v", ts)
	}
	if ts.Histogram(0) == nil || ts.Histogram(1) == nil {
		t.Error("histograms missing")
	}
	if ts.Histogram(5) != nil || ts.Histogram(-1) != nil {
		t.Error("out-of-range histogram lookup should be nil")
	}
	var nilStats *TableStats
	if nilStats.Histogram(0) != nil {
		t.Error("nil TableStats lookups should be nil")
	}
}

// BuildHistogram constructs an equi-depth histogram with at most maxBuckets
// buckets over the given column values. It takes ownership of the slice:
// values are compacted and sorted in place rather than copied, so callers
// must pass a slice they no longer need.
func BuildHistogram(values []sqlval.Value, maxBuckets int) *Histogram {
	h := &Histogram{Total: int64(len(values))}
	nonNull := values[:0]
	for _, v := range values {
		if v.IsNull() {
			h.NullCount++
		} else {
			nonNull = append(nonNull, v)
		}
	}
	cutValues(h, nonNull, maxBuckets)
	return h
}

// NonNullCount returns the number of non-NULL values summarised.
func (h *Histogram) NonNullCount() int64 { return h.Total - h.NullCount }

// EstimateEqual estimates the number of rows with column = v, using the
// uniform-within-bucket assumption (count/distinct for the covering bucket).
func (h *Histogram) EstimateEqual(v sqlval.Value) float64 {
	if v.IsNull() {
		return 0
	}
	est := 0.0
	for _, b := range h.Buckets {
		if sqlval.Compare(v, b.Lo) >= 0 && sqlval.Compare(v, b.Hi) <= 0 {
			d := b.Distinct
			if d < 1 {
				d = 1
			}
			est += float64(b.Count) / float64(d)
		}
	}
	return est
}

// DistinctEstimate returns the estimated number of distinct non-NULL values.
func (h *Histogram) DistinctEstimate() int64 {
	var d int64
	for _, b := range h.Buckets {
		d += b.Distinct
	}
	return d
}

// Equal reports structural equality of two histograms. It is what makes the
// generator "lossy" in the paper's sense testable: two different relations
// can produce Equal histograms.
func (h *Histogram) Equal(other *Histogram) bool {
	if h.Total != other.Total || h.NullCount != other.NullCount || len(h.Buckets) != len(other.Buckets) {
		return false
	}
	for i, b := range h.Buckets {
		o := other.Buckets[i]
		if b.Count != o.Count || b.Distinct != o.Distinct ||
			sqlval.Compare(b.Lo, o.Lo) != 0 || sqlval.Compare(b.Hi, o.Hi) != 0 {
			return false
		}
	}
	return true
}
