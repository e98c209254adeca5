package stats_test

import (
	"testing"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/skyserver"
	"sqlprogress/internal/stats"
	"sqlprogress/internal/tpch"
)

func relations(cat *catalog.Catalog) []*schema.Relation {
	var out []*schema.Relation
	for _, name := range cat.TableNames() {
		out = append(out, cat.MustRelation(name))
	}
	return out
}

// TestHistogramMatchesReference holds the generator to the reference
// builder on every column of the repository's datasets: TPC-H at skew 0, 1
// and 2, SkyServer, and Theorem 1's adversarial twins with the skewed join
// pair. Buckets, counts, bounds, NULL counts and degree norms must all
// agree, at the default bucket budget and at a small one that cuts inside
// heavy runs.
func TestHistogramMatchesReference(t *testing.T) {
	var rels []*schema.Relation
	for _, z := range []float64{0, 1, 2} {
		rels = append(rels, relations(tpch.Generate(tpch.Config{SF: 0.01, Z: z, Seed: 3}))...)
	}
	rels = append(rels, relations(skyserver.Generate(skyserver.Config{PhotoObj: 10_000, Seed: 3}))...)
	twins := datagen.NewAdversarialTwins(2_000, 0, 500)
	pair := datagen.NewSkewPair(500, 5_000, 2, 3)
	rels = append(rels, twins.R11, twins.R12, twins.R2, pair.R1, pair.R2)
	for _, rel := range rels {
		for _, mb := range []int{stats.DefaultBuckets, 7} {
			for _, d := range stats.DiffGenerated(rel, mb) {
				t.Error(d)
			}
		}
	}
}

// histogramGeneratorAllocBudget and histogramGeneratorBytesBudget are the
// ceilings on one HistogramGenerator.Generate over lineitem at -sf 0.02 (the
// benchmark's scale, 120 279 rows): the measured figures plus 10 %. Both
// are deterministic up to a few allocations per worker (118 allocs and
// 18.4 MB per run at GOMAXPROCS 2 when the budget was set). The bytes are
// the fifteen typed key vectors, each sized once for the whole column;
// copying every column into a fresh []sqlval.Value to sort it by Compare
// took 57.9 MB.
const (
	histogramGeneratorAllocBudget = 130
	histogramGeneratorBytesBudget = 20_290_000
)

// TestHistogramGeneratorAllocBudget holds Generate over lineitem to both
// budgets. Wall-clock is not checked.
func TestHistogramGeneratorAllocBudget(t *testing.T) {
	rel := tpch.Generate(tpch.Config{SF: 0.02, Z: 1, Seed: 42}).MustRelation("lineitem")
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.HistogramGenerator{}.Generate(rel)
		}
	})
	if r.N == 0 {
		t.Fatal("benchmark body failed")
	}
	t.Logf("lineitem (%d rows): %d allocs/op, %d B/op", len(rel.Rows), r.AllocsPerOp(), r.AllocedBytesPerOp())
	if got := r.AllocsPerOp(); got > histogramGeneratorAllocBudget {
		t.Errorf("histogram generator: %d allocs/op, budget %d", got, histogramGeneratorAllocBudget)
	}
	if got := r.AllocedBytesPerOp(); got > histogramGeneratorBytesBudget {
		t.Errorf("histogram generator: %d B/op, budget %d", got, histogramGeneratorBytesBudget)
	}
}

// BenchmarkHistogramGenerator times Generate on each TPC-H table at the
// benchmark's scale, -sf 0.02 and skew 1: the statistics share of the
// data set-up that BenchmarkGenerateTPCH in internal/tpch times whole.
func BenchmarkHistogramGenerator(b *testing.B) {
	cat := tpch.Generate(tpch.Config{SF: 0.02, Z: 1, Seed: 42})
	for _, rel := range relations(cat) {
		b.Run(rel.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats.HistogramGenerator{}.Generate(rel)
			}
		})
	}
}
