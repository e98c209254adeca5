package stats

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// TableStats is the synopsis HistogramGenerator produces for one relation:
// the row count plus one per-column statistic. It is the unit stored in the
// catalog.
type TableStats struct {
	Table      string
	RowCount   int64
	Histograms []*Histogram // indexed by column position; nil when not built
}

// Histogram returns the histogram for column i, or nil.
func (ts *TableStats) Histogram(i int) *Histogram {
	if ts == nil || i < 0 || i >= len(ts.Histograms) {
		return nil
	}
	return ts.Histograms[i]
}

// HistogramGenerator is the paper's single-relation statistics generator
// SG: it maps a relation instance to a synopsis, equi-depth histograms on
// every column. It is deterministic and lossy — sufficiently large relations
// admit single-tuple changes that leave the synopsis unchanged — which is the
// hypothesis of the paper's Theorem 1.
type HistogramGenerator struct {
	// MaxBuckets bounds each histogram's size; 0 means DefaultBuckets.
	MaxBuckets int
}

// DefaultBuckets is the bucket budget used when none is configured,
// mirroring typical engine defaults (SQL Server uses up to 200 steps).
const DefaultBuckets = 64

// Generate builds the synopsis for rel. One pass over the rows pulls every
// column's values into a typed key vector; the columns are then sorted and
// cut on up to GOMAXPROCS goroutines, each writing only the histograms of
// the columns it took.
func (g HistogramGenerator) Generate(rel *schema.Relation) *TableStats {
	mb := g.MaxBuckets
	if mb <= 0 {
		mb = DefaultBuckets
	}
	rows, ncol := len(rel.Rows), rel.Sch.Len()
	ts := &TableStats{
		Table:      rel.Name,
		RowCount:   rel.Cardinality(),
		Histograms: make([]*Histogram, ncol),
	}
	cols := make([]keyColumn, ncol)
	for _, row := range rel.Rows {
		for i := range cols {
			cols[i].add(row[i], rows)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1) - 1); i < ncol; i = int(next.Add(1) - 1) {
			ts.Histograms[i] = cols[i].histogram(rows, mb)
			cols[i] = keyColumn{} // free the keys while other columns are cut
		}
	}
	for w := min(runtime.GOMAXPROCS(0), ncol); w > 0; w-- {
		wg.Add(1)
		go work()
	}
	wg.Wait()
	return ts
}

// keyColumn gathers one column's non-NULL values as sort keys of their own
// Go type — int64 for Int, Date and Bool, float64 for Float, string for
// String — so that sorting and cutting never call sqlval.Compare. A column
// holding values of two kinds (an Int inserted into a DOUBLE column, say)
// keeps them as Values and is sorted by sqlval.Compare.
type keyColumn struct {
	kind   sqlval.Kind // of every value so far; KindNull before the first
	nulls  int64
	ints   []int64
	floats []float64
	strs   []string
	mixed  []sqlval.Value // non-nil once a second kind has been seen
}

// add appends v; rows sizes a vector when the first value arrives.
func (c *keyColumn) add(v sqlval.Value, rows int) {
	k := v.Kind()
	switch {
	case k == sqlval.KindNull:
		c.nulls++
		return
	case c.mixed != nil:
		c.mixed = append(c.mixed, v)
		return
	case c.kind == sqlval.KindNull:
		c.kind = k
		switch k {
		case sqlval.KindFloat:
			c.floats = make([]float64, 0, rows)
		case sqlval.KindString:
			c.strs = make([]string, 0, rows)
		default:
			c.ints = make([]int64, 0, rows)
		}
	case k != c.kind:
		c.mixed = make([]sqlval.Value, 0, rows)
		for _, x := range c.ints {
			c.mixed = append(c.mixed, intValue(c.kind, x))
		}
		for _, x := range c.floats {
			c.mixed = append(c.mixed, sqlval.Float(x))
		}
		for _, x := range c.strs {
			c.mixed = append(c.mixed, sqlval.String(x))
		}
		c.ints, c.floats, c.strs = nil, nil, nil
		c.mixed = append(c.mixed, v)
		return
	}
	switch k {
	case sqlval.KindFloat:
		c.floats = append(c.floats, v.AsFloat())
	case sqlval.KindString:
		c.strs = append(c.strs, v.AsString())
	case sqlval.KindBool:
		c.ints = append(c.ints, intKey(v.AsBool()))
	default:
		c.ints = append(c.ints, v.AsInt())
	}
}

// histogram sorts the column's keys and cuts them into buckets.
func (c *keyColumn) histogram(rows, maxBuckets int) *Histogram {
	h := &Histogram{Total: int64(rows), NullCount: c.nulls}
	switch {
	case c.mixed != nil:
		cutValues(h, c.mixed, maxBuckets)
	case c.kind == sqlval.KindFloat:
		cutTyped(h, c.floats, sqlval.Float, maxBuckets)
	case c.kind == sqlval.KindString:
		cutTyped(h, c.strs, sqlval.String, maxBuckets)
	default:
		kind := c.kind
		cutTyped(h, c.ints, func(x int64) sqlval.Value { return intValue(kind, x) }, maxBuckets)
	}
	return h
}

// cutTyped sorts typed keys in place (NaN first, as sqlval.Compare puts
// it) and cuts them.
func cutTyped[K cmp.Ordered](h *Histogram, keys []K, value func(K) sqlval.Value, maxBuckets int) {
	slices.Sort(keys)
	cutBuckets(h, keys, sameKey[K], value, maxBuckets)
}

// sameKey is key equality under sqlval.Compare's order: a NaN equals a NaN.
func sameKey[K cmp.Ordered](a, b K) bool { return a == b || (a != a && b != b) }

func intKey(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// intValue rebuilds the Int, Date or Bool value an int64 key came from.
func intValue(kind sqlval.Kind, x int64) sqlval.Value {
	switch kind {
	case sqlval.KindDate:
		return sqlval.Date(x)
	case sqlval.KindBool:
		return sqlval.Bool(x != 0)
	}
	return sqlval.Int(x)
}
