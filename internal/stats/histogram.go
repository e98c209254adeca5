package stats

import (
	"fmt"
	"slices"
	"strings"

	"sqlprogress/internal/sqlval"
)

// Bucket is one equi-depth histogram bucket covering values in [Lo, Hi]
// (inclusive on both ends; adjacent buckets may share a boundary value when
// a single value's frequency exceeds the bucket depth).
type Bucket struct {
	Lo, Hi   sqlval.Value
	Count    int64
	Distinct int64
}

// Histogram is an equi-depth single-column histogram. NULLs are counted
// separately.
type Histogram struct {
	Buckets   []Bucket
	NullCount int64
	Total     int64 // including NULLs
	// Stale is the staleness budget: the number of rows known (or assumed)
	// to have been mutated since the histogram was built, without
	// re-analysis. Each in-place mutation moves at most one row into or out
	// of any range, so EstimateRange widens its hard bounds by this budget
	// and they remain sound for the drifted relation. Zero for fresh
	// statistics; set via Degrade.
	Stale int64
	// Degrees carries the column's degree-sequence ℓp norms, captured in the
	// same sorted pass that cut the buckets. Read them through DegreeNorms,
	// which applies the staleness widening.
	Degrees DegreeSeq
}

// DegreeNorms returns the column's degree-sequence norms, widened by the
// histogram's staleness budget so they stay sound upper bounds for the
// drifted relation. The second return is false when the histogram
// summarised no non-NULL values (empty columns have no degree sequence to
// bound joins with).
func (h *Histogram) DegreeNorms() (DegreeSeq, bool) {
	if h == nil || h.Degrees.NonNull <= 0 {
		return DegreeSeq{}, false
	}
	return h.Degrees.Widen(h.Stale, h.Total), true
}

// cutValues sorts non-NULL values by sqlval.Compare and cuts them.
func cutValues(h *Histogram, values []sqlval.Value, maxBuckets int) {
	slices.SortFunc(values, sqlval.Compare)
	cutBuckets(h, values, func(a, b sqlval.Value) bool { return sqlval.Compare(a, b) == 0 },
		func(v sqlval.Value) sqlval.Value { return v }, maxBuckets)
}

// cutBuckets fills h's buckets and degree norms from keys, a column's
// non-NULL values in sorted order (sqlval.Compare's order, or a typed
// order that agrees with it). same tells whether two keys are one value;
// value turns a key back into the Value a bucket bound holds. One walk over
// the equal-value runs does both jobs: each run is one key's degree, and a
// bucket boundary only ever falls between two runs.
func cutBuckets[K any](h *Histogram, keys []K, same func(a, b K) bool, value func(K) sqlval.Value, maxBuckets int) {
	n := len(keys)
	if n == 0 {
		return
	}
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	depth := (n + maxBuckets - 1) / maxBuckets
	start, distinct := 0, int64(0) // the open bucket: keys[start:], its runs so far
	closeAt := func(end int) {
		h.Buckets = append(h.Buckets, Bucket{Lo: value(keys[start]), Hi: value(keys[end-1]), Count: int64(end - start), Distinct: distinct})
		start, distinct = end, 0
	}
	runStart := 0
	for i := 1; i <= n; i++ {
		if i < n && same(keys[i], keys[i-1]) {
			continue
		}
		h.Degrees.addRun(int64(i - runStart))
		// Equal values must not straddle a bucket boundary. If the bucket's
		// depth falls inside this run, cut before the run; if the run opens
		// the bucket, give the run its own bucket (keeps heavy hitters exact).
		if i > start+depth && runStart > start {
			closeAt(runStart)
		}
		distinct++
		if i >= start+depth || i == n {
			closeAt(i)
		}
		runStart = i
	}
}

// RangeEstimate holds an estimate together with hard bounds derived from
// bucket boundaries: rows from buckets fully inside the range must qualify
// (LB), rows from buckets overlapping the range may qualify (UB).
type RangeEstimate struct {
	Est    float64
	LB, UB int64
}

// EstimateRange estimates rows with lo <= column <= hi; nil bounds are open.
// Interpolation within partially-covered buckets is linear for numeric and
// date buckets and proportional-by-count otherwise.
func (h *Histogram) EstimateRange(lo, hi *sqlval.Value, loIncl, hiIncl bool) RangeEstimate {
	var out RangeEstimate
	for _, b := range h.Buckets {
		if bucketDisjoint(b, lo, hi, loIncl, hiIncl) {
			continue
		}
		out.UB += b.Count
		if bucketContained(b, lo, hi, loIncl, hiIncl) {
			out.LB += b.Count
			out.Est += float64(b.Count)
			continue
		}
		frac := bucketFraction(b, lo, hi)
		// The bucket overlaps the range, so at least one value could match;
		// keep the estimate strictly positive.
		if m := 1 / float64(b.Count); frac < m {
			frac = m
		}
		out.Est += frac * float64(b.Count)
	}
	// A stale histogram's bucket counts describe the relation as analyzed;
	// up to Stale rows have drifted since. Widening by the budget keeps the
	// bounds hard: rows cannot be created or destroyed by in-place updates,
	// so the upper bound stays capped at the analyzed row count.
	if h.Stale > 0 {
		out.LB -= h.Stale
		if out.LB < 0 {
			out.LB = 0
		}
		out.UB += h.Stale
		if out.UB > h.Total {
			out.UB = h.Total
		}
	}
	return out
}

// bucketDisjoint reports whether bucket b provably contains no rows in the
// range.
func bucketDisjoint(b Bucket, lo, hi *sqlval.Value, loIncl, hiIncl bool) bool {
	if lo != nil {
		c := sqlval.Compare(b.Hi, *lo)
		if c < 0 || (c == 0 && !loIncl) {
			return true
		}
	}
	if hi != nil {
		c := sqlval.Compare(b.Lo, *hi)
		if c > 0 || (c == 0 && !hiIncl) {
			return true
		}
	}
	return false
}

// bucketContained reports whether every row of bucket b provably lies in the
// range.
func bucketContained(b Bucket, lo, hi *sqlval.Value, loIncl, hiIncl bool) bool {
	loIn := lo == nil || sqlval.Compare(b.Lo, *lo) > 0 || (loIncl && sqlval.Compare(b.Lo, *lo) == 0)
	hiIn := hi == nil || sqlval.Compare(b.Hi, *hi) < 0 || (hiIncl && sqlval.Compare(b.Hi, *hi) == 0)
	return loIn && hiIn
}

// bucketFraction linearly interpolates the overlapped share of a partially
// covered bucket (numeric and date buckets; 0.5 otherwise).
func bucketFraction(b Bucket, lo, hi *sqlval.Value) float64 {
	bl, bh := b.Lo, b.Hi
	if !bl.Numeric() && bl.Kind() != sqlval.KindDate {
		return 0.5
	}
	span := bh.AsFloat() - bl.AsFloat()
	if span <= 0 {
		return 0.5
	}
	start, end := bl.AsFloat(), bh.AsFloat()
	if lo != nil && (*lo).AsFloat() > start {
		start = (*lo).AsFloat()
	}
	if hi != nil && (*hi).AsFloat() < end {
		end = (*hi).AsFloat()
	}
	if end < start {
		return 0
	}
	return (end - start) / span
}

// MaxValue returns the largest value covered (or NULL for an empty
// histogram).
func (h *Histogram) MaxValue() sqlval.Value {
	if len(h.Buckets) == 0 {
		return sqlval.Null()
	}
	return h.Buckets[len(h.Buckets)-1].Hi
}

// MinValue returns the smallest value covered (or NULL for an empty
// histogram).
func (h *Histogram) MinValue() sqlval.Value {
	if len(h.Buckets) == 0 {
		return sqlval.Null()
	}
	return h.Buckets[0].Lo
}

// String renders a compact description.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "histogram{n=%d nulls=%d buckets=%d", h.Total, h.NullCount, len(h.Buckets))
	if len(h.Buckets) > 0 {
		fmt.Fprintf(&sb, " range=[%s,%s]", h.MinValue(), h.MaxValue())
	}
	sb.WriteByte('}')
	return sb.String()
}
