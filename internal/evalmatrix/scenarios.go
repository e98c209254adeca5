package evalmatrix

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/skyserver"
	"sqlprogress/internal/sqlval"
	"sqlprogress/internal/stats"
	"sqlprogress/internal/tpch"
)

// The paged plan family's cache regime: a small cold pool so most of the
// scan faults, with each faulting row charged 1+pagedReadCost units (the
// I/O-bound accounting the pager subsystem introduced).
const (
	pagedFrames   = 8
	pagedReadCost = 4
)

// dataset is one row of the matrix's data axis.
type dataset struct {
	name string
	// skewed marks datasets whose stale join cells are the paper's Section 5
	// adversarial regime (zipf fan-out drained heavy-keys-last); the
	// acceptance gate requires safe <= dne on exactly these cells.
	skewed bool
}

func datasets() []dataset {
	return []dataset{
		{"tpch-z0", false},
		{"tpch-z1", true},
		{"tpch-z2", true},
		{"skyserver", false},
		{"adversarial", true},
	}
}

// familySpec is one plan family of a scenario. build must return a fresh
// operator tree on every call (cells are executed several times: a dry run
// to size the sampling period, then the monitored run).
type familySpec struct {
	name  string
	build func() (exec.Operator, error)
}

// scenario is one (dataset, stats health) cell group: a catalog holding the
// (possibly drifted) data with the (possibly degraded) statistics, plus the
// six plan families over it. The mmjoin family is a genuinely
// many-to-many hash join over small base tables: the only family whose
// classic fallback UB is the cross product, so it is where the pessimistic
// degree-norm bound (UBTight) visibly tightens and where lp-safe separates
// from safe.
type scenario struct {
	families []familySpec
	cleanup  func()
}

// buildScenario constructs the catalog for (ds, health) and its families.
// The same seed is used for every health regime of a dataset, so fresh,
// stale and absent cells start from identical generated data; stale cells
// then mutate ~20% of the measured tables' rows in place and install the
// un-reanalyzed (staleness-stamped) synopses, and absent cells strip the
// synopses entirely.
func buildScenario(ds dataset, health stats.Health, opts Options) (scenario, error) {
	switch ds.name {
	case "tpch-z0", "tpch-z1", "tpch-z2":
		z := float64(ds.name[len(ds.name)-1] - '0')
		cat := tpch.Generate(tpch.Config{SF: opts.TPCHScale, Z: z, Seed: opts.Seed})
		degradeTables(cat, health, opts, []mutation{
			{"orders", "o_totalprice"},
			{"lineitem", "l_suppkey"},
			{"supplier", "s_acctbal"},
		})
		lo, hi := sqlval.Float(1000), sqlval.Float(2500)
		return assemble(cat, "orders",
			familySpec{"scan", func() (exec.Operator, error) {
				return plan.NewBuilder(cat).RangeScan("orders", "o_totalprice", &lo, &hi, true, true).Op, nil
			}},
			familySpec{"join", func() (exec.Operator, error) {
				order := skewLastOrder(cat, "supplier", "s_suppkey", "lineitem", "l_suppkey")
				b := plan.NewBuilder(cat)
				return b.ScanOrdered("supplier", order).
					INLJoin("lineitem", "l_suppkey", "s_suppkey", exec.InnerJoin).Op, nil
			}},
			familySpec{"mmjoin", func() (exec.Operator, error) {
				// supplier self-join on nation: non-key equi-join, so the
				// classic UB is |supplier|^2 while the degree norms bound the
				// true fan-out product.
				b := plan.NewBuilder(cat)
				return b.Scan("supplier").
					HashJoin(b.Scan("supplier"), "s_nationkey", "s_nationkey", exec.InnerJoin).Op, nil
			}},
			familySpec{"agg", func() (exec.Operator, error) {
				b := plan.NewBuilder(cat)
				return b.Scan("lineitem").HashAgg(0, []string{"l_suppkey"},
					plan.AggSpec{Kind: expr.AggCountStar, As: "n"}).Op, nil
			}},
			familySpec{"hjoin", func() (exec.Operator, error) {
				b := plan.NewBuilder(cat)
				return b.Scan("lineitem").
					HashJoin(b.Scan("supplier"), "l_suppkey", "s_suppkey", exec.InnerJoin).Op, nil
			}},
		)
	case "skyserver":
		cat := skyserver.Generate(skyserver.Config{PhotoObj: opts.SkyRows, Seed: opts.Seed})
		degradeTables(cat, health, opts, []mutation{
			{"photoobj", "r"},
			{"photoobj", "fieldid"},
		})
		hi := sqlval.Float(18)
		return assemble(cat, "photoobj",
			familySpec{"scan", func() (exec.Operator, error) {
				return plan.NewBuilder(cat).RangeScan("photoobj", "r", nil, &hi, true, true).Op, nil
			}},
			familySpec{"join", func() (exec.Operator, error) {
				order := skewLastOrder(cat, "field", "fieldid", "photoobj", "fieldid")
				b := plan.NewBuilder(cat)
				return b.ScanOrdered("field", order).
					INLJoin("photoobj", "fieldid", "fieldid", exec.InnerJoin).Op, nil
			}},
			familySpec{"mmjoin", func() (exec.Operator, error) {
				// field self-join on camera column: each camcol repeats across
				// stripes, a many-to-many join over the small metadata table.
				b := plan.NewBuilder(cat)
				return b.Scan("field").
					HashJoin(b.Scan("field"), "camcol", "camcol", exec.InnerJoin).Op, nil
			}},
			familySpec{"agg", func() (exec.Operator, error) {
				b := plan.NewBuilder(cat)
				return b.Scan("photoobj").HashAgg(4, []string{"type"},
					plan.AggSpec{Kind: expr.AggCountStar, As: "n"}).Op, nil
			}},
			familySpec{"hjoin", func() (exec.Operator, error) {
				b := plan.NewBuilder(cat)
				return b.Scan("photoobj").
					HashJoin(b.Scan("field"), "fieldid", "fieldid", exec.InnerJoin).Op, nil
			}},
		)
	case "adversarial":
		pair := datagen.NewSkewPair(opts.AdvKeys, opts.AdvRows, 2, opts.Seed)
		cat := catalog.New(nil)
		cat.AddRelation(pair.R1)
		cat.AddRelation(pair.R2)
		cat.DeclareUnique("r1", "a")
		cat.DeclareForeignKey(catalog.ForeignKey{
			ChildTable: "r2", ChildColumn: "b",
			ParentTable: "r1", ParentColumn: "a"})
		degradeTables(cat, health, opts, []mutation{{"r2", "b"}})
		// A zipf(1) key column over a small domain for the mmjoin family:
		// r1 x r1 is a unique-key (linear) join and r2 x r2 would explode
		// under zipf(2) skew, so neither exercises the degree-norm bound.
		cat.AddRelation(datagen.IntRelation("mm", "k",
			datagen.ZipfValues(64, 200, 1, opts.Seed+101)))
		lo, hi := sqlval.Int(0), sqlval.Int(9)
		return assemble(cat, "r2",
			familySpec{"scan", func() (exec.Operator, error) {
				return plan.NewBuilder(cat).RangeScan("r2", "b", &lo, &hi, true, true).Op, nil
			}},
			familySpec{"join", func() (exec.Operator, error) {
				order := skewLastOrder(cat, "r1", "a", "r2", "b")
				b := plan.NewBuilder(cat)
				return b.ScanOrdered("r1", order).
					INLJoin("r2", "b", "a", exec.InnerJoin).Op, nil
			}},
			familySpec{"mmjoin", func() (exec.Operator, error) {
				b := plan.NewBuilder(cat)
				return b.Scan("mm").
					HashJoin(b.Scan("mm"), "k", "k", exec.InnerJoin).Op, nil
			}},
			familySpec{"agg", func() (exec.Operator, error) {
				b := plan.NewBuilder(cat)
				return b.Scan("r2").HashAgg(float64(opts.AdvKeys), []string{"b"},
					plan.AggSpec{Kind: expr.AggCountStar, As: "n"}).Op, nil
			}},
			familySpec{"hjoin", func() (exec.Operator, error) {
				b := plan.NewBuilder(cat)
				return b.Scan("r2").HashJoin(b.Scan("r1"), "b", "a", exec.InnerJoin).Op, nil
			}},
		)
	}
	return scenario{}, fmt.Errorf("evalmatrix: unknown dataset %q", ds.name)
}

// assemble appends the paged family (a cold-pool heap scan of pagedTable,
// written after any mutation so the on-disk rows match the in-memory ones)
// and wraps everything into a scenario.
func assemble(cat *catalog.Catalog, pagedTable string, fams ...familySpec) (scenario, error) {
	pagedBuild, cleanup, err := pagedFamily(cat.MustRelation(pagedTable))
	if err != nil {
		return scenario{}, err
	}
	return scenario{
		families: append(fams, familySpec{"paged", pagedBuild}),
		cleanup:  cleanup,
	}, nil
}

// mutation names a (table, column) the stale regime drifts.
type mutation struct{ table, column string }

// degradeTables applies the health regime: for stale, mutate ~20% of each
// listed table's rows in the named column (seeded, values drawn uniformly
// from the column's analyzed [min, max] domain) and install
// staleness-stamped synopses without re-analyzing; for absent, strip the
// listed tables' synopses. Fresh leaves everything as AddRelation built it.
func degradeTables(cat *catalog.Catalog, health stats.Health, opts Options, muts []mutation) {
	switch health {
	case stats.Stale:
		perTable := map[string]int64{}
		for i, m := range muts {
			perTable[m.table] += mutateColumn(cat, m.table, m.column, 0.2, opts.Seed+int64(i)+1)
		}
		for table, k := range perTable {
			cat.SetStats(table, stats.Degrade(cat.Stats(table), stats.Stale, k))
		}
	case stats.Absent:
		seen := map[string]bool{}
		for _, m := range muts {
			if seen[m.table] {
				continue
			}
			seen[m.table] = true
			cat.SetStats(m.table, stats.Degrade(cat.Stats(m.table), stats.Absent, 0))
		}
	}
}

// mutateColumn drifts frac of the table's rows: each chosen row's column is
// rewritten to a seeded-random value inside the column's analyzed domain.
// It must run after AddRelation (so fresh synopses describe the pre-drift
// data) and before any plan is built (indexes are built lazily, so they see
// the drifted rows). Returns the number of rows changed.
func mutateColumn(cat *catalog.Catalog, table, column string, frac float64, seed int64) int64 {
	rel := cat.MustRelation(table)
	ci := rel.Sch.MustColIndex("", column)
	h := cat.Stats(table).Histogram(ci)
	if h == nil || len(h.Buckets) == 0 {
		return 0
	}
	lo, hi := h.MinValue(), h.MaxValue()
	r := rand.New(rand.NewSource(seed))
	n := len(rel.Rows)
	k := int(frac * float64(n))
	for _, i := range r.Perm(n)[:k] {
		switch lo.Kind() {
		case sqlval.KindInt:
			span := hi.AsInt() - lo.AsInt()
			rel.Rows[i][ci] = sqlval.Int(lo.AsInt() + r.Int63n(span+1))
		default:
			rel.Rows[i][ci] = sqlval.Float(lo.AsFloat() + r.Float64()*(hi.AsFloat()-lo.AsFloat()))
		}
	}
	return int64(k)
}

// skewLastOrder computes the paper's Figure 5 worst-case arrival order for
// a driver relation: positions sorted by ascending fan-out into the fact
// table, so the heaviest join keys are drained last. Computed over the
// actual (possibly drifted) rows, which keeps stale cells genuinely
// adversarial for dne.
func skewLastOrder(cat *catalog.Catalog, driver, driverKey, fact, factKey string) []int32 {
	drel := cat.MustRelation(driver)
	frel := cat.MustRelation(fact)
	dk := drel.Sch.MustColIndex("", driverKey)
	fk := frel.Sch.MustColIndex("", factKey)
	fan := make(map[int64]int64, len(drel.Rows))
	for _, row := range frel.Rows {
		fan[row[fk].AsInt()]++
	}
	order := make([]int32, len(drel.Rows))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return fan[drel.Rows[order[a]][dk].AsInt()] < fan[drel.Rows[order[b]][dk].AsInt()]
	})
	return order
}

// pagedFamily returns a build function producing a fresh cold-pool paged
// scan of rel per call (every run faults its own pages, so both the dry run
// and the monitored run see the same deterministic I/O-weighted
// accounting).
func pagedFamily(rel *schema.Relation) (func() (exec.Operator, error), func(), error) {
	hf, err := spill(rel)
	if err != nil {
		return nil, nil, err
	}
	build := func() (exec.Operator, error) {
		pr := pagedStore(hf, pagedFrames)
		op := exec.NewStoreScan(pr, nil)
		op.SetEstimatedCard(pr.Cardinality())
		return op, nil
	}
	return build, func() { hf.Close() }, nil
}

// spill writes rel to a temp heap file and opens it. The temp directory is
// removed immediately — the held descriptor keeps the pages readable.
func spill(rel *schema.Relation) (*pager.HeapFile, error) {
	dir, err := os.MkdirTemp("", "evalmatrix-heap-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, rel.Name+".heap")
	if err := pager.WriteRelation(path, rel); err != nil {
		return nil, err
	}
	return pager.OpenHeapFile(path)
}

// pagedStore binds a heap file to a fresh pool of the given frames, each
// faulting row charged 1+pagedReadCost units.
func pagedStore(hf *pager.HeapFile, frames int) *pager.PagedRelation {
	pr := pager.NewPagedRelation(hf, pager.NewPool(frames))
	pr.SetReadCost(pagedReadCost)
	return pr
}
