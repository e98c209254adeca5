package coretest

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// This file is the executable statement of the storage seam's claim: at the
// default read cost a disk-backed paged scan is observationally equivalent
// to an in-memory scan for everything the paper's progress machinery can
// see. The same plan built over the same data — once against in-memory
// relations, once against pager heap files behind a deliberately tiny
// buffer pool — must produce identical results, identical total GetNext
// calls and identical per-node ledger state, in both the exact and the bulk
// regime; the credit-read check (credit.go) runs over both builds. Buffer pool
// hits, misses and evictions may differ run to run; none of it may leak into
// the ledger.

// padRelation builds a relation of (key INT, s VARCHAR) rows with a fixed
// 120-byte pad column, so a few hundred rows span several 8 KiB pages and
// a small pool is forced to evict mid-scan.
func padRelation(name, col string, keys []int64) *schema.Relation {
	rel := schema.NewRelation(name, schema.New(
		schema.Column{Name: col, Type: sqlval.KindInt},
		schema.Column{Name: "s", Type: sqlval.KindString},
	))
	for i, k := range keys {
		pad := fmt.Sprintf("%-120s", fmt.Sprintf("%s-%06d", name, i))
		rel.Append(schema.Row{sqlval.Int(k), sqlval.String(pad)})
	}
	return rel
}

// pagedTwinFrames keeps the shared pool much smaller than p2's page count,
// so every cold scan misses and rescans evict.
const pagedTwinFrames = 4

// twinCatalogs returns two catalogs over identical data: in mem, tables p1
// (80 unique-keyed rows) and p2 (480 zipf-skewed rows) are in-memory
// relations; in paged they are heap files behind one shared 4-frame buffer
// pool. Both also carry the corpus relations r1/r2 in memory for index and
// build sides, with identical key declarations. Both are built once per
// process, with the fixture.
func twinCatalogs(t testing.TB) (mem, paged *catalog.Catalog) {
	t.Helper()
	f, err := fixture()
	if err != nil {
		t.Fatalf("coretest: building paged twin catalogs: %v", err)
	}
	return f.mem, f.paged
}

// twinRelations builds the paged corpus data: a unique-keyed p1 and a
// zipf-skewed p2 whose padded rows span several pages each.
func twinRelations() (p1, p2 *schema.Relation) {
	return padRelation("p1", "a", datagen.Sequence(80)),
		padRelation("p2", "b", datagen.ZipfValues(80, 480, 1.5, 3))
}

// pagedFixture holds the corpus's on-disk twin data, written once per
// process: the in-memory reference relations, their open heap files and
// the twin catalogs over them. The temp dir holding the files is deleted
// immediately after open — the descriptors keep the data readable for the
// process lifetime, so no file ever outlives the test run. The open heap
// files are shared by the twin catalogs and by every chaos run (each of
// which brings its own pool and, for fault runs, its own backend wrapper).
type pagedFixture struct {
	p1, p2     *schema.Relation
	hf1, hf2   *pager.HeapFile
	mem, paged *catalog.Catalog
}

var pagedFix = struct {
	once sync.Once
	f    *pagedFixture
	err  error
}{}

func fixture() (*pagedFixture, error) {
	pagedFix.once.Do(func() { pagedFix.f, pagedFix.err = buildFixture() })
	return pagedFix.f, pagedFix.err
}

func buildFixture() (*pagedFixture, error) {
	f := &pagedFixture{}
	f.p1, f.p2 = twinRelations()
	dir, err := os.MkdirTemp("", "sqlprogress-paged-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	open := func(rel *schema.Relation) (*pager.HeapFile, error) {
		path := filepath.Join(dir, rel.Name+".heap")
		if err := pager.WriteRelation(path, rel); err != nil {
			return nil, err
		}
		return pager.OpenHeapFile(path)
	}
	if f.hf1, err = open(f.p1); err != nil {
		return nil, err
	}
	if f.hf2, err = open(f.p2); err != nil {
		return nil, err
	}
	if f.mem, err = corpusSideCatalog(); err != nil {
		return nil, err
	}
	if f.paged, err = corpusSideCatalog(); err != nil {
		return nil, err
	}
	f.mem.AddRelation(f.p1)
	f.mem.AddRelation(f.p2)
	pool := pager.NewPool(pagedTwinFrames)
	f.paged.AddStore(pager.NewPagedRelation(f.hf1, pool))
	f.paged.AddStore(pager.NewPagedRelation(f.hf2, pool))
	return f, nil
}

// corpusSideCatalog returns a catalog carrying the shared corpus relations
// r1/r2 (index and build sides) with the twin key declarations.
func corpusSideCatalog() (*catalog.Catalog, error) {
	base := corpusCatalog()
	cat := catalog.New(nil)
	for _, name := range []string{"r1", "r2"} {
		rel, err := base.Relation(name)
		if err != nil {
			return nil, err
		}
		cat.AddRelation(rel)
	}
	cat.DeclareUnique("r1", "a")
	cat.DeclareUnique("p1", "a")
	return cat, nil
}

// PagedEntry is one plan family of the paged differential corpus. Build
// receives the catalog to construct against: the same closure produces the
// in-memory reference and the disk-backed subject.
type PagedEntry struct {
	Label string
	Build func(cat *catalog.Catalog) exec.Operator
}

// PagedCorpus returns plans whose p1/p2 scans exercise the paged access
// paths that differ mechanically from in-memory scans: full and filtered
// serial scans (cursor row path), scans under sort/top (NextChunk batch
// path), joins driven by a paged outer, and both-sides-paged merge join.
func PagedCorpus() []PagedEntry {
	lt := func(col string, v int64) plan.PredFn {
		return func(sch *schema.Schema) expr.Expr {
			return expr.Compare(expr.LT, expr.NewCol(sch, "", col), expr.Literal(sqlval.Int(v)))
		}
	}
	count := plan.AggSpec{Kind: expr.AggCountStar, As: "n"}
	return []PagedEntry{
		{Label: "paged-scan", Build: func(cat *catalog.Catalog) exec.Operator {
			return plan.NewBuilder(cat).Scan("p2").Op
		}},
		{Label: "paged-filter-sort-top", Build: func(cat *catalog.Catalog) exec.Operator {
			return plan.NewBuilder(cat).ScanFiltered("p2", 0.5, lt("b", 40)).Sort("b").Top(25).Op
		}},
		{Label: "paged-inl-join", Build: func(cat *catalog.Catalog) exec.Operator {
			return plan.NewBuilder(cat).Scan("p1").INLJoin("r2", "b", "a", exec.InnerJoin).Op
		}},
		{Label: "paged-hash-join-agg", Build: func(cat *catalog.Catalog) exec.Operator {
			b := plan.NewBuilder(cat)
			return b.Scan("p2").HashJoin(b.Scan("r1"), "b", "a", exec.InnerJoin).
				HashAgg(0, []string{"b"}, count).Op
		}},
		{Label: "paged-merge-join", Build: func(cat *catalog.Catalog) exec.Operator {
			b := plan.NewBuilder(cat)
			return b.Scan("p1").Sort("a").MergeJoin(b.Scan("p2").Sort("b"), "a", "b").Op
		}},
	}
}

// CheckPagedEquivalence builds the same plan against memCat (in-memory
// reference) and pagedCat (disk-backed subject) and asserts observational
// equivalence in the exact regime and in bulk pulls (batch sizes 1 and 13):
//
//   - identical result rows, in order,
//   - identical total GetNext calls,
//   - identical per-node final ledger snapshots.
func CheckPagedEquivalence(t testing.TB, label string, memCat, pagedCat *catalog.Catalog, build func(*catalog.Catalog) exec.Operator) {
	t.Helper()
	check := func(lbl, engine string, batchSize int, exact bool) {
		t.Helper()
		ref := mustRun(t, lbl+": in-memory "+engine, build(memCat), batchSize, exact)
		sub := mustRun(t, lbl+": paged "+engine, build(pagedCat), batchSize, exact)
		if err := compareRuns(lbl, "paged", "in-memory", sub, ref); err != nil {
			t.Fatal(err)
		}
	}
	check(label+"[row]", "row", 0, true)
	for _, bs := range []int{1, 13} {
		check(fmt.Sprintf("%s[batch bs=%d]", label, bs), "batch", bs, false)
	}
}
