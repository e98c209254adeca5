// Package datagen generates the synthetic data sets of the paper's
// experiments: zipfian-skewed join columns (Sections 5.2–5.4), the
// adversarial twin instances of Theorem 1, and arrival-order permutations
// (skew-first, skew-last, random) for driver relations.
//
// All generation is deterministic given a seed, so experiments and tests
// are reproducible.
package datagen

import (
	"math"
	"math/rand"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// ZipfFrequencies splits total observations over n keys with the frequency
// of the key at rank r proportional to 1/(r+1)^z (rank 0 heaviest). The
// result sums exactly to total. z = 0 degenerates to uniform.
func ZipfFrequencies(n int, total int64, z float64) []int64 {
	if n <= 0 || total <= 0 {
		return nil
	}
	weights := make([]float64, n)
	var sum float64
	for r := 0; r < n; r++ {
		weights[r] = 1 / math.Pow(float64(r+1), z)
		sum += weights[r]
	}
	out := make([]int64, n)
	var assigned int64
	for r := 0; r < n; r++ {
		out[r] = int64(weights[r] / sum * float64(total))
		assigned += out[r]
	}
	out[0] += total - assigned
	return out
}

// ZipfValues draws count values from the key domain [0, nKeys) with
// zipf(z) frequencies, shuffled into a random order with the given seed.
func ZipfValues(nKeys int, count int64, z float64, seed int64) []int64 {
	freq := ZipfFrequencies(nKeys, count, z)
	out := make([]int64, 0, count)
	for key, f := range freq {
		for i := int64(0); i < f; i++ {
			out = append(out, int64(key))
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// IntRelation builds a single-column BIGINT relation from values.
func IntRelation(name, col string, vals []int64) *schema.Relation {
	rel := schema.NewRelation(name, schema.New(schema.Column{Name: col, Type: sqlval.KindInt}))
	for _, v := range vals {
		rel.Append(schema.Row{sqlval.Int(v)})
	}
	return rel
}

// Sequence returns 0..n-1.
func Sequence(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// SkewPair is the paper's Section 5 synthetic pair: R1(A) with unique
// values 0..N-1 and R2(B) with |R2| = Count values zipf(z)-distributed over
// R1's key domain. Key 0 carries the highest frequency.
type SkewPair struct {
	R1, R2 *schema.Relation
	// Fanout[i] is the number of R2 rows joining R1's key i.
	Fanout []int64
}

// NewSkewPair generates the pair. r2Shuffled controls whether R2's rows are
// stored shuffled (seeded) or grouped by key.
func NewSkewPair(n int, r2Count int64, z float64, seed int64) *SkewPair {
	fan := ZipfFrequencies(n, r2Count, z)
	var r2vals []int64
	for key, f := range fan {
		for i := int64(0); i < f; i++ {
			r2vals = append(r2vals, int64(key))
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(r2vals), func(i, j int) { r2vals[i], r2vals[j] = r2vals[j], r2vals[i] })
	return &SkewPair{
		R1:     IntRelation("r1", "a", Sequence(int64(n))),
		R2:     IntRelation("r2", "b", r2vals),
		Fanout: fan,
	}
}

// OrderKind selects the arrival order of a driver relation's tuples.
type OrderKind string

// Arrival orders used by the paper's experiments.
const (
	// OrderSkewFirst visits the highest-fanout keys first (Figure 4).
	OrderSkewFirst OrderKind = "skew-first"
	// OrderSkewLast visits the highest-fanout keys last (Figure 5).
	OrderSkewLast OrderKind = "skew-last"
	// OrderRandom is a seeded random permutation (Theorem 3's regime).
	OrderRandom OrderKind = "random"
)

// Order builds a scan permutation of R1 for the pair: positions of R1 rows
// in the desired arrival order. R1 row i holds key i, and Fanout is
// descending in key, so skew-first is the identity, and so is any kind
// not listed above: rows as stored.
func (p *SkewPair) Order(kind OrderKind, seed int64) []int32 {
	n := len(p.R1.Rows)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	switch kind {
	case OrderSkewLast:
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	case OrderRandom:
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// AdversarialTwins is Theorem 1's construction: two instances of R1 that
// differ in exactly one tuple t placed after fraction f2 of the rows, with
// identical equi-depth histograms, plus an R2 filled so that t's value in
// the second instance joins with every R2 row.
type AdversarialTwins struct {
	// R11 is the instance where t holds the benign value v (present
	// elsewhere in the relation's value distribution but joining nothing).
	R11 *schema.Relation
	// R12 is R11 with t's value changed to v', which joins all of R2.
	R12 *schema.Relation
	// R2 holds rows all carrying v'.
	R2 *schema.Relation
	// TuplePos is t's position in the scan order.
	TuplePos int
	// V and VPrime are the two values of t.
	V, VPrime int64
}

// NewAdversarialTwins builds the construction with |R11| = n rows holding
// values 10*i (so in-bucket tweaks don't cross histogram boundaries), t at
// position pos, and |R2| = r2Count rows of v'. V and V' are chosen strictly
// inside the same histogram bucket for any equi-depth histogram with bucket
// depth >= 4.
func NewAdversarialTwins(n, pos int, r2Count int64) *AdversarialTwins {
	if pos <= 0 || pos >= n-1 {
		pos = n * 9 / 10
	}
	base := make([]int64, n)
	for i := range base {
		base[i] = int64(i) * 10
	}
	v := base[pos] + 1      // strictly between neighbours
	vPrime := base[pos] + 2 // likewise; both absent elsewhere
	mk := func(tv int64) *schema.Relation {
		vals := make([]int64, n)
		copy(vals, base)
		vals[pos] = tv
		return IntRelation("r1", "a", vals)
	}
	r2vals := make([]int64, r2Count)
	for i := range r2vals {
		r2vals[i] = vPrime
	}
	return &AdversarialTwins{
		R11:      mk(v),
		R12:      mk(vPrime),
		R2:       IntRelation("r2", "b", r2vals),
		TuplePos: pos,
		V:        v,
		VPrime:   vPrime,
	}
}
