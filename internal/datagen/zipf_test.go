package datagen

import (
	"math/rand"
	"testing"
)

func TestZipfSamplerUniform(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[z.Next()]++
	}
	for k, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("z=0 key %d count = %d, want ≈1000", k, c)
		}
	}
}

func TestZipfSamplerSkewed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	z := NewZipf(r, 100, 2)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		counts[z.Next()]++
	}
	// Key 0 should hold roughly 1/zeta(2)-ish of the mass over 100 keys.
	if counts[0] < 5000 {
		t.Errorf("z=2 heavy key count = %d, want > 5000", counts[0])
	}
	if counts[0] <= counts[1] || counts[1] <= counts[5] {
		t.Error("counts should decay with rank")
	}
}

func TestZipfSamplerDomain(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	z := NewZipf(r, 3, 1)
	if len(z.cum) != 3 {
		t.Errorf("N = %d", len(z.cum))
	}
	for i := 0; i < 1000; i++ {
		v := z.Next()
		if v < 0 || v > 2 {
			t.Fatalf("sample %d out of domain", v)
		}
	}
	one := NewZipf(r, 0, 1) // degenerate: clamps to 1 key
	if len(one.cum) != 1 || one.Next() != 0 {
		t.Error("degenerate sampler should emit 0")
	}
}
