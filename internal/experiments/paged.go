package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Pager is the I/O-bound scenario this reproduction adds on top of the
// paper's benchmark suite: the same queries over the same rows, estimated
// once against a cold buffer pool (every page of the scan is a physical
// read, charged at readCost extra GetNext units) and once against a warm
// pool (every page resident, pure row accounting). The paper models work
// in GetNext calls and assumes calls cost roughly the same; page-weighted
// crediting breaks that uniformity exactly the way real I/O does, and the
// cold-side max ratio errors show how much each estimator gives up.
// Warm-side runs reduce to the in-memory ledger bit-for-bit, so their
// errors match the paper's in-memory scenario.
func Pager(opts Options) Result {
	const (
		readCost   = 4
		coldFrames = 8
		padBytes   = 400
		dimRows    = 97
	)
	n := opts.SynthRows
	if n <= 0 {
		n = 30_000
	}

	fact := schema.NewRelation("fact", schema.New(
		schema.Column{Name: "k", Type: sqlval.KindInt},
		schema.Column{Name: "g", Type: sqlval.KindInt},
		schema.Column{Name: "pad", Type: sqlval.KindString},
	))
	pad := strings.Repeat("x", padBytes)
	for i := 0; i < n; i++ {
		fact.Append(schema.Row{
			sqlval.Int(int64(i)), sqlval.Int(int64(i % dimRows)), sqlval.String(pad),
		})
	}
	dim := schema.NewRelation("dim", schema.New(
		schema.Column{Name: "dg", Type: sqlval.KindInt},
		schema.Column{Name: "v", Type: sqlval.KindInt},
	))
	for i := 0; i < dimRows; i++ {
		dim.Append(schema.Row{sqlval.Int(int64(i)), sqlval.Int(int64(i * i))})
	}

	dir, err := os.MkdirTemp("", "sqlprogress-pager-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fact.heap")
	if err := pager.WriteRelation(path, fact); err != nil {
		panic(err)
	}
	// catWith re-opens the heap file against a fresh pool; each call is its
	// own cache regime.
	catWith := func(frames int) (*catalog.Catalog, *pager.PagedRelation) {
		cat := catalog.New(nil)
		pr, err := cat.AttachHeapFile(path, pager.NewPool(frames))
		if err != nil {
			panic(err)
		}
		pr.SetReadCost(readCost)
		cat.AddRelation(dim)
		cat.DeclareUnique("dim", "dg")
		return cat, pr
	}
	_, probe := catWith(coldFrames)
	dataPages := int(probe.HeapFile().DataPages())

	queries := []struct {
		label string
		build func(cat *catalog.Catalog) exec.Operator
	}{
		{"scan", func(cat *catalog.Catalog) exec.Operator {
			return plan.NewBuilder(cat).Scan("fact").Op
		}},
		{"hash-join-agg", func(cat *catalog.Catalog) exec.Operator {
			b := plan.NewBuilder(cat)
			return b.Scan("fact").
				HashJoin(b.Scan("dim"), "g", "dg", exec.InnerJoin).
				HashAgg(dimRows, []string{"dg"}, plan.AggSpec{Kind: expr.AggCountStar, As: "n"}).Op
		}},
	}
	ests := []core.Estimator{core.Dne{}, core.Pmax{}, core.Safe{}}

	res := Result{
		ID:      "pager",
		Title:   "I/O-bound estimation: cold vs warm buffer pool",
		Headers: []string{"query", "cache", "mu", "dne ratio", "pmax ratio", "safe ratio", "hit ratio", "reads"},
		Metrics: map[string]float64{},
	}
	for _, q := range queries {
		for _, regime := range []string{"cold", "warm"} {
			frames := coldFrames
			if regime == "warm" {
				frames = dataPages + 8
			}
			cat, pr := catWith(frames)
			if regime == "warm" {
				// Pre-fault every page so the measured run never reads.
				if _, err := exec.Run(exec.NewCtx(), plan.NewBuilder(cat).Scan("fact").Op); err != nil {
					panic(err)
				}
			}
			before := pr.Pool().Stats()
			root := q.build(cat)
			every := sampleEvery(int64(n)+int64(readCost*dataPages), opts)
			series, m, err := runSeries(root, every, ests...)
			if err != nil {
				panic(err)
			}
			after := pr.Pool().Stats()
			reads := after.Misses - before.Misses
			hits := after.Hits - before.Hits
			hitRatio := 0.0
			if hits+reads > 0 {
				hitRatio = float64(hits) / float64(hits+reads)
			}
			row := []string{q.label, regime, f3(m.Mu())}
			for _, e := range ests {
				r := core.MaxRatioError(series[e.Name()])
				row = append(row, f3(r))
				res.Metrics[q.label+"_"+regime+"_"+e.Name()] = r
			}
			row = append(row, f3(hitRatio), fmt.Sprintf("%d", reads))
			res.Metrics[q.label+"_"+regime+"_hit_ratio"] = hitRatio
			res.Metrics[q.label+"_"+regime+"_reads"] = float64(reads)
			res.Metrics[q.label+"_"+regime+"_mu"] = m.Mu()
			res.Rows = append(res.Rows, row)
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("fact: %d rows over %d pages (%d-byte pad), read cost %d units/physical read, cold pool %d frames",
			n, dataPages, padBytes, readCost, coldFrames),
		"cold runs charge 1+w units for the row that faults its page, widening [LB, UB] by up to w*pages;",
		"warm runs never miss, so their accounting — and estimator errors — equal the in-memory scenario's.",
	)
	return res
}
