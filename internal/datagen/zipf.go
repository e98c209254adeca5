package datagen

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples keys 0..n-1 with P(k) proportional to 1/(k+1)^z. Unlike
// math/rand's Zipf it accepts any z >= 0 (z = 0 is uniform), which is what
// the TPC-H skew generator's per-column skew knob needs.
type Zipf struct {
	cum []float64
	r   *rand.Rand
}

// NewZipf builds a sampler over n keys with exponent z using r as the
// randomness source.
func NewZipf(r *rand.Rand, n int, z float64) *Zipf {
	if n < 1 {
		n = 1
	}
	cum := make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), z)
		cum[k] = sum
	}
	for k := range cum {
		cum[k] /= sum
	}
	return &Zipf{cum: cum, r: r}
}

// Next draws one key.
func (z *Zipf) Next() int64 {
	u := z.r.Float64()
	return int64(sort.SearchFloat64s(z.cum, u))
}
