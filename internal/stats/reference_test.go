package stats

import (
	"fmt"
	"slices"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// ReferenceHistogram is the plain builder the generator is held to: it sorts
// a copy of the column with sqlval.Compare, takes the degree norms from the
// equal-value runs and cuts the buckets with Compare, each in its own pass.
func ReferenceHistogram(values []sqlval.Value, maxBuckets int) *Histogram {
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	h := &Histogram{Total: int64(len(values))}
	var nonNull []sqlval.Value
	for _, v := range values {
		if v.IsNull() {
			h.NullCount++
		} else {
			nonNull = append(nonNull, v)
		}
	}
	if len(nonNull) == 0 {
		return h
	}
	slices.SortFunc(nonNull, sqlval.Compare)
	n := len(nonNull)
	runStart := 0
	for i := 1; i <= n; i++ {
		if i == n || sqlval.Compare(nonNull[i], nonNull[i-1]) != 0 {
			h.Degrees.addRun(int64(i - runStart))
			runStart = i
		}
	}
	depth := (n + maxBuckets - 1) / maxBuckets
	for start := 0; start < n; {
		end := start + depth
		if end > n {
			end = n
		}
		// Equal values must not straddle a bucket boundary. If the boundary
		// falls mid-run, cut before the run; if the run occupies the whole
		// bucket, give the run its own bucket.
		if end < n && sqlval.Compare(nonNull[end], nonNull[end-1]) == 0 {
			rs := end
			for rs > start && sqlval.Compare(nonNull[rs-1], nonNull[end]) == 0 {
				rs--
			}
			if rs > start {
				end = rs
			} else {
				for end < n && sqlval.Compare(nonNull[end], nonNull[end-1]) == 0 {
					end++
				}
			}
		}
		b := Bucket{Lo: nonNull[start], Hi: nonNull[end-1], Count: int64(end - start)}
		d := int64(1)
		for i := start + 1; i < end; i++ {
			if sqlval.Compare(nonNull[i], nonNull[i-1]) != 0 {
				d++
			}
		}
		b.Distinct = d
		h.Buckets = append(h.Buckets, b)
		start = end
	}
	return h
}

// DiffHistogram describes the first way got differs from want, or returns
// "" when they agree on every bucket's count, distinct count and
// Compare-equal bounds, on the NULL and row counts, the staleness budget and
// the degree norms.
func DiffHistogram(got, want *Histogram) string {
	switch {
	case got.Total != want.Total || got.NullCount != want.NullCount || got.Stale != want.Stale:
		return fmt.Sprintf("total/nulls/stale %d/%d/%d, want %d/%d/%d",
			got.Total, got.NullCount, got.Stale, want.Total, want.NullCount, want.Stale)
	case got.Degrees != want.Degrees:
		return fmt.Sprintf("degrees %+v, want %+v", got.Degrees, want.Degrees)
	case len(got.Buckets) != len(want.Buckets):
		return fmt.Sprintf("%d buckets, want %d", len(got.Buckets), len(want.Buckets))
	}
	for i, b := range got.Buckets {
		w := want.Buckets[i]
		if b.Count != w.Count || b.Distinct != w.Distinct ||
			sqlval.Compare(b.Lo, w.Lo) != 0 || sqlval.Compare(b.Hi, w.Hi) != 0 {
			return fmt.Sprintf("bucket %d = [%s,%s] n=%d d=%d, want [%s,%s] n=%d d=%d",
				i, b.Lo, b.Hi, b.Count, b.Distinct, w.Lo, w.Hi, w.Count, w.Distinct)
		}
	}
	return ""
}

// column returns a fresh copy of all values of column i of rel.
func column(rel *schema.Relation, i int) []sqlval.Value {
	out := make([]sqlval.Value, len(rel.Rows))
	for j, row := range rel.Rows {
		out[j] = row[i]
	}
	return out
}

// DiffGenerated checks every column of rel: the HistogramGenerator's
// histogram against ReferenceHistogram over the column, at maxBuckets.
// It returns one line per column that differs.
func DiffGenerated(rel *schema.Relation, maxBuckets int) []string {
	ts := HistogramGenerator{MaxBuckets: maxBuckets}.Generate(rel)
	var out []string
	for i, col := range rel.Sch.Columns {
		want := ReferenceHistogram(column(rel, i), maxBuckets)
		if d := DiffHistogram(ts.Histogram(i), want); d != "" {
			out = append(out, fmt.Sprintf("%s.%s (%d buckets): %s", rel.Name, col.Name, maxBuckets, d))
		}
		if d := DiffHistogram(BuildHistogram(column(rel, i), maxBuckets), want); d != "" {
			out = append(out, fmt.Sprintf("%s.%s (%d buckets) via BuildHistogram: %s", rel.Name, col.Name, maxBuckets, d))
		}
	}
	return out
}
