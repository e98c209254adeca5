package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

func intRelation(vals ...int64) *schema.Relation {
	rel := schema.NewRelation("r", schema.New(schema.Column{Name: "a", Type: sqlval.KindInt}))
	for _, v := range vals {
		rel.Append(schema.Row{sqlval.Int(v)})
	}
	return rel
}

func relationWithNulls(vals []int64, nulls int) *schema.Relation {
	rel := intRelation(vals...)
	for i := 0; i < nulls; i++ {
		rel.Append(schema.Row{sqlval.Null()})
	}
	return rel
}

func TestOrderedSeekEqual(t *testing.T) {
	rel := intRelation(5, 3, 5, 7, 5, 1)
	o := BuildOrdered("ix", rel, 0)
	r := seekEqual(o, sqlval.Int(5))
	if r.Count() != 3 {
		t.Errorf("SeekEqual(5).Count = %d, want 3", r.Count())
	}
	for i := r.Start; i < r.End; i++ {
		if rel.Rows[o.At(i)][0].AsInt() != 5 {
			t.Errorf("entry %d is %v, want 5", i, rel.Rows[o.At(i)][0])
		}
	}
	if seekEqual(o, sqlval.Int(4)).Count() != 0 {
		t.Error("SeekEqual(4) should be empty")
	}
}

func TestOrderedSeekRange(t *testing.T) {
	rel := intRelation(1, 2, 3, 4, 5, 6, 7, 8)
	o := BuildOrdered("ix", rel, 0)
	lo, hi := sqlval.Int(3), sqlval.Int(6)
	cases := []struct {
		loIncl, hiIncl bool
		want           int
	}{
		{true, true, 4},   // [3,6]
		{false, true, 3},  // (3,6]
		{true, false, 3},  // [3,6)
		{false, false, 2}, // (3,6)
	}
	for _, c := range cases {
		r := o.SeekRange(&lo, &hi, c.loIncl, c.hiIncl)
		if r.Count() != c.want {
			t.Errorf("range incl(%v,%v): count = %d, want %d", c.loIncl, c.hiIncl, r.Count(), c.want)
		}
	}
	// Open-ended ranges.
	if r := o.SeekRange(&lo, nil, true, false); r.Count() != 6 {
		t.Errorf("[3,∞) count = %d, want 6", r.Count())
	}
	if r := o.SeekRange(nil, &hi, false, true); r.Count() != 6 {
		t.Errorf("(-∞,6] count = %d, want 6", r.Count())
	}
	// Empty range where hi < lo.
	hi2 := sqlval.Int(2)
	if r := o.SeekRange(&lo, &hi2, true, true); r.Count() != 0 {
		t.Errorf("[3,2] count = %d, want 0", r.Count())
	}
}

func TestOrderedRangeSkipsNulls(t *testing.T) {
	rel := relationWithNulls([]int64{1, 2, 3}, 2)
	o := BuildOrdered("ix", rel, 0)
	if r := o.SeekRange(nil, nil, false, false); r.Count() != 3 {
		t.Errorf("full open range count = %d, want 3 (NULLs excluded)", r.Count())
	}
}

// Property: ordered index enumerates a sorted permutation of the relation.
func TestOrderedSortedPermutationQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = r.Int63n(50)
		}
		rel := intRelation(vals...)
		o := BuildOrdered("ix", rel, 0)
		if len(o.pos) != n {
			return false
		}
		seen := make(map[int32]bool, n)
		for i := 0; i < n; i++ {
			p := o.At(i)
			if seen[p] {
				return false
			}
			seen[p] = true
			if i > 0 && sqlval.Compare(rel.Rows[o.At(i-1)][0], rel.Rows[p][0]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: SeekEqual count matches scan count for random probes.
func TestOrderedSeekEqualMatchesScanQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(150)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = r.Int63n(15)
		}
		rel := intRelation(vals...)
		o := BuildOrdered("ix", rel, 0)
		probe := r.Int63n(20)
		want := 0
		for _, v := range vals {
			if v == probe {
				want++
			}
		}
		return seekEqual(o, sqlval.Int(probe)).Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Count returns the number of entries in the range.
func (r Range) Count() int { return r.End - r.Start }

// seekEqual is the span of positions whose key equals v: the point range.
func seekEqual(o *Ordered, v sqlval.Value) Range { return o.SeekRange(&v, &v, true, true) }
