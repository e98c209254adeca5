// Package index provides in-memory secondary indexes over relations: a hash
// index for equality lookups (index nested loops joins) and an ordered index
// for range scans and seeks (clustered-index range scans, merge join inputs).
//
// Indexes store row positions into the base relation rather than rows, so a
// relation with several indexes is stored once.
package index

import (
	"fmt"
	"sort"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Hash is an equality index on one column of a relation.
type Hash struct {
	Name    string
	Rel     *schema.Relation
	ColIdx  int
	buckets map[uint64][]int32
	// Dense direct-address fast path, used when every key is an integer in
	// a compact range: slot v-denseLo holds the positions for key v, found
	// by a bounds check instead of a hash computation and map probe. The
	// layout is CSR — positions for slot s are densePos[denseOff[s]:
	// denseOff[s+1]] — two flat pointer-free arrays, so the fast path adds
	// nothing to GC mark work no matter how many keys it covers. Nil when
	// the keys are non-integer or too sparse.
	denseOff []int32
	densePos []int32
	denseLo  int64
	// maxFanout is the largest number of rows sharing one key; progress
	// bounds use it to cap an INL join's worst-case output.
	maxFanout int64
}

// denseMaxWaste caps the direct-address table at this many slots per indexed
// row, bounding the memory overhead of the fast path to a small constant
// factor of the positions it stores.
const denseMaxWaste = 4

// BuildHash constructs a hash index on column col of rel. A first pass
// checks whether every key is an integer in a compact range; if so the index
// is purely the dense direct-address table — the dense form answers every
// probe (integral floats convert, other kinds match nothing), so no hash map
// is built at all and index construction allocates two flat arrays instead
// of a bucket map. Sparse or non-integer keys fall back to the map.
func BuildHash(name string, rel *schema.Relation, col int) *Hash {
	h := &Hash{Name: name, Rel: rel, ColIdx: col}
	intKeys, seen := true, false
	var lo, hi int64
	for _, row := range rel.Rows {
		v := row[col]
		if v.IsNull() {
			continue // NULLs never match an equality seek
		}
		if v.Kind() != sqlval.KindInt {
			intKeys = false
			break
		}
		iv := v.AsInt()
		if !seen {
			lo, hi, seen = iv, iv, true
		}
		if iv < lo {
			lo = iv
		}
		if iv > hi {
			hi = iv
		}
	}
	if n := int64(len(rel.Rows)); intKeys && seen {
		if span := hi - lo + 1; span > 0 && span <= denseMaxWaste*n {
			off := make([]int32, span+1)
			for _, row := range rel.Rows {
				if v := row[col]; !v.IsNull() {
					off[v.AsInt()-lo+1]++
				}
			}
			for s := int64(1); s <= span; s++ {
				off[s] += off[s-1]
			}
			pos := make([]int32, off[span])
			next := make([]int32, span)
			copy(next, off[:span])
			for i, row := range rel.Rows {
				if v := row[col]; !v.IsNull() {
					slot := v.AsInt() - lo
					pos[next[slot]] = int32(i)
					next[slot]++
				}
			}
			h.denseOff, h.densePos, h.denseLo = off, pos, lo
			for s := int64(0); s < span; s++ {
				if f := int64(off[s+1] - off[s]); f > h.maxFanout {
					h.maxFanout = f
				}
			}
			return h
		}
	}
	h.buckets = make(map[uint64][]int32)
	for i, row := range rel.Rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		k := sqlval.Hash(v)
		h.buckets[k] = append(h.buckets[k], int32(i))
	}
	for _, b := range h.buckets {
		// A bucket may mix hash-colliding keys; the true per-key fanout is
		// bounded by the bucket size, which is what matters for an upper
		// bound.
		if n := int64(len(b)); n > h.maxFanout {
			h.maxFanout = n
		}
	}
	return h
}

// Lookup returns the positions of rows whose indexed column equals v.
func (h *Hash) Lookup(v sqlval.Value) []int32 {
	if v.IsNull() {
		return nil
	}
	if h.denseOff != nil {
		// Every key is an integer: integral floats convert and match, any
		// other probe kind matches nothing.
		var k int64
		switch v.Kind() {
		case sqlval.KindInt:
			k = v.AsInt()
		case sqlval.KindFloat:
			f := v.AsFloat()
			k = int64(f)
			if float64(k) != f { // non-integral (or out-of-range, or NaN)
				return nil
			}
		default:
			return nil
		}
		slot := k - h.denseLo
		if slot < 0 || slot >= int64(len(h.denseOff)-1) {
			return nil
		}
		return h.densePos[h.denseOff[slot]:h.denseOff[slot+1]]
	}
	bucket := h.buckets[sqlval.Hash(v)]
	if len(bucket) == 0 {
		return nil
	}
	// Filter hash collisions. Almost always the whole bucket matches (a
	// collision needs two keys with equal hashes), so verify first and
	// return the bucket itself without copying; only a genuine collision
	// pays for a filtered copy.
	for i, pos := range bucket {
		if !sqlval.Equal(h.Rel.Rows[pos][h.ColIdx], v) {
			out := append(bucket[:i:i], bucket[i+1:]...)
			j := i
			for j < len(out) {
				if sqlval.Equal(h.Rel.Rows[out[j]][h.ColIdx], v) {
					j++
				} else {
					out = append(out[:j], out[j+1:]...)
				}
			}
			return out
		}
	}
	return bucket
}

// Dense exposes the direct-address fast path when one was built (ok=false
// otherwise): positions for integer key k are pos[off[s]:off[s+1]] with
// s = k-lo, valid when 0 <= s < len(off)-1; keys outside that span match
// nothing. Tight probe loops (the INL join's vectorized path) use this to
// inline lookups down to a bounds check and two slice indexings.
func (h *Hash) Dense() (off, pos []int32, lo int64, ok bool) {
	return h.denseOff, h.densePos, h.denseLo, h.denseOff != nil
}

// MaxFanout returns an upper bound on rows matching any single key.
func (h *Hash) MaxFanout() int64 { return h.maxFanout }

// String identifies the index in plan explanations.
func (h *Hash) String() string {
	return fmt.Sprintf("hash(%s.%s)", h.Rel.Name, h.Rel.Sch.Columns[h.ColIdx].Name)
}

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
