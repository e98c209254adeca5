package datagen

import (
	"fmt"
	"testing"
	"testing/quick"

	"sqlprogress/internal/stats"
)

func TestZipfFrequenciesSumAndShape(t *testing.T) {
	f := ZipfFrequencies(100, 10000, 2.0)
	var sum int64
	for i, v := range f {
		sum += v
		if i > 0 && v > f[i-1] {
			t.Fatalf("frequencies must be non-increasing: f[%d]=%d > f[%d]=%d", i, v, i-1, f[i-1])
		}
	}
	if sum != 10000 {
		t.Errorf("sum = %d, want 10000", sum)
	}
	// z=2: the heaviest key holds ~ 1/zeta(2) ≈ 61% of the mass.
	if f[0] < 5000 || f[0] > 7000 {
		t.Errorf("heavy key frequency = %d, want ≈6100", f[0])
	}
}

func TestZipfFrequenciesUniform(t *testing.T) {
	f := ZipfFrequencies(10, 1000, 0)
	for i, v := range f {
		if i > 0 && (v < 99 || v > 101) {
			t.Errorf("z=0 should be ≈uniform, f[%d]=%d", i, v)
		}
	}
}

func TestZipfFrequenciesEdgeCases(t *testing.T) {
	if ZipfFrequencies(0, 10, 1) != nil {
		t.Error("n=0 should be nil")
	}
	if ZipfFrequencies(10, 0, 1) != nil {
		t.Error("total=0 should be nil")
	}
	f := ZipfFrequencies(1, 42, 2)
	if len(f) != 1 || f[0] != 42 {
		t.Errorf("single key gets everything: %v", f)
	}
}

// Property: frequencies always sum exactly to total.
func TestZipfFrequenciesSumQuick(t *testing.T) {
	f := func(n uint8, total uint16, zTenths uint8) bool {
		if n == 0 || total == 0 {
			return true
		}
		freq := ZipfFrequencies(int(n), int64(total), float64(zTenths)/10)
		var sum int64
		for _, v := range freq {
			sum += v
		}
		return sum == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestZipfValues(t *testing.T) {
	vals := ZipfValues(50, 2000, 2.0, 7)
	if int64(len(vals)) != 2000 {
		t.Fatalf("len = %d", len(vals))
	}
	counts := map[int64]int64{}
	for _, v := range vals {
		if v < 0 || v >= 50 {
			t.Fatalf("value %d out of domain", v)
		}
		counts[v]++
	}
	if counts[0] < 1000 {
		t.Errorf("heavy key count = %d, want > 1000", counts[0])
	}
	// Determinism.
	vals2 := ZipfValues(50, 2000, 2.0, 7)
	for i := range vals {
		if vals[i] != vals2[i] {
			t.Fatal("ZipfValues must be deterministic per seed")
		}
	}
}

func TestSkewPair(t *testing.T) {
	p := NewSkewPair(100, 1000, 2.0, 3)
	if p.R1.Cardinality() != 100 || p.R2.Cardinality() != 1000 {
		t.Fatalf("sizes = %d, %d", p.R1.Cardinality(), p.R2.Cardinality())
	}
	var fanSum int64
	for _, f := range p.Fanout {
		fanSum += f
	}
	if fanSum != 1000 {
		t.Errorf("fanout sum = %d", fanSum)
	}
	// Verify fanout matches R2's contents.
	counts := map[int64]int64{}
	for _, row := range p.R2.Rows {
		counts[row[0].AsInt()]++
	}
	for key, f := range p.Fanout {
		if counts[int64(key)] != f {
			t.Errorf("key %d: fanout %d but %d rows", key, f, counts[int64(key)])
		}
	}
}

func TestSkewPairOrders(t *testing.T) {
	p := NewSkewPair(10, 100, 2.0, 3)
	stored := p.Order("", 0)
	first := p.Order(OrderSkewFirst, 0)
	last := p.Order(OrderSkewLast, 0)
	random := p.Order(OrderRandom, 5)
	for i := 0; i < 10; i++ {
		if stored[i] != int32(i) || first[i] != int32(i) {
			t.Error("stored/skew-first should be identity (fanout is descending in key)")
		}
		if last[i] != int32(9-i) {
			t.Error("skew-last should be reversed")
		}
	}
	seen := map[int32]bool{}
	for _, v := range random {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Error("random order must be a permutation")
	}
	r2 := p.Order(OrderRandom, 5)
	for i := range random {
		if random[i] != r2[i] {
			t.Fatal("random order must be deterministic per seed")
		}
	}
}

func TestAdversarialTwinsHistogramsIdentical(t *testing.T) {
	tw := NewAdversarialTwins(1000, 900, 5000)
	gen := stats.HistogramGenerator{MaxBuckets: 32}
	h1 := gen.Generate(tw.R11).Histogram(0)
	h2 := gen.Generate(tw.R12).Histogram(0)
	if fmt.Sprint(h1.Total, h1.NullCount, h1.Buckets) != fmt.Sprint(h2.Total, h2.NullCount, h2.Buckets) {
		t.Fatal("Theorem 1 requires the twins to have identical histograms")
	}
	// The prefix before t must be byte-identical.
	for i := 0; i < tw.TuplePos; i++ {
		if tw.R11.Rows[i][0].AsInt() != tw.R12.Rows[i][0].AsInt() {
			t.Fatalf("row %d differs before the changed tuple", i)
		}
	}
	// The changed tuple joins nothing in R11 and everything in R12.
	if tw.R11.Rows[tw.TuplePos][0].AsInt() != tw.V {
		t.Error("R11's t should hold v")
	}
	if tw.R12.Rows[tw.TuplePos][0].AsInt() != tw.VPrime {
		t.Error("R12's t should hold v'")
	}
	for _, row := range tw.R2.Rows {
		if row[0].AsInt() != tw.VPrime {
			t.Fatal("R2 must hold only v'")
		}
	}
}

func TestAdversarialTwinsDefaultPosition(t *testing.T) {
	tw := NewAdversarialTwins(100, -1, 10)
	if tw.TuplePos != 90 {
		t.Errorf("default position = %d, want 90", tw.TuplePos)
	}
}

func TestSequence(t *testing.T) {
	s := Sequence(4)
	if len(s) != 4 || s[0] != 0 || s[3] != 3 {
		t.Errorf("Sequence = %v", s)
	}
}
