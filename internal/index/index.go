// Package index provides the ordered index: a sorted secondary index on one
// column of an in-memory relation, for range scans and seeks (clustered-index
// range scans, merge join inputs). An index nested loops join needs no index
// from here: it probes the hash join's table (exec.INLJoin).
//
// An index stores row positions into the base relation rather than rows, so
// a relation with several indexes is stored once.
package index

import (
	"fmt"
	"sort"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Ordered is a sorted index on one column, supporting point and range seeks.
type Ordered struct {
	Name   string
	Rel    *schema.Relation
	ColIdx int
	// pos holds row positions sorted by the indexed column (NULLs first,
	// matching sqlval.Compare).
	pos []int32
}

// BuildOrdered constructs an ordered index on column col of rel.
func BuildOrdered(name string, rel *schema.Relation, col int) *Ordered {
	o := &Ordered{Name: name, Rel: rel, ColIdx: col, pos: make([]int32, len(rel.Rows))}
	for i := range o.pos {
		o.pos[i] = int32(i)
	}
	sort.SliceStable(o.pos, func(i, j int) bool {
		return sqlval.Compare(rel.Rows[o.pos[i]][col], rel.Rows[o.pos[j]][col]) < 0
	})
	return o
}

// At returns the i-th row position in index order.
func (o *Ordered) At(i int) int32 { return o.pos[i] }

// key returns the indexed value of the i-th entry.
func (o *Ordered) key(i int) sqlval.Value { return o.Rel.Rows[o.pos[i]][o.ColIdx] }

// LowerBound returns the first index position whose key is >= v.
func (o *Ordered) LowerBound(v sqlval.Value) int {
	return sort.Search(len(o.pos), func(i int) bool {
		return sqlval.Compare(o.key(i), v) >= 0
	})
}

// UpperBound returns the first index position whose key is > v.
func (o *Ordered) UpperBound(v sqlval.Value) int {
	return sort.Search(len(o.pos), func(i int) bool {
		return sqlval.Compare(o.key(i), v) > 0
	})
}

// Range describes a half-open [Start, End) span of index positions.
type Range struct{ Start, End int }

// SeekRange returns the span of positions in [lo, hi], where a nil bound is
// open and the Incl flags control bound inclusivity.
func (o *Ordered) SeekRange(lo, hi *sqlval.Value, loIncl, hiIncl bool) Range {
	start := 0
	if lo != nil {
		if loIncl {
			start = o.LowerBound(*lo)
		} else {
			start = o.UpperBound(*lo)
		}
	} else {
		// Skip NULLs: a range predicate never matches NULL.
		start = o.UpperBound(sqlval.Null())
	}
	end := len(o.pos)
	if hi != nil {
		if hiIncl {
			end = o.UpperBound(*hi)
		} else {
			end = o.LowerBound(*hi)
		}
	}
	if end < start {
		end = start
	}
	return Range{Start: start, End: end}
}

// String identifies the index in plan explanations.
func (o *Ordered) String() string {
	return fmt.Sprintf("ordered(%s.%s)", o.Rel.Name, o.Rel.Sch.Columns[o.ColIdx].Name)
}
