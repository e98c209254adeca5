package coretest

import (
	"sync"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// CorpusEntry is one plan family of the invariant corpus. Build returns a
// fresh operator tree over the shared corpus catalog: operators carry
// runtime state and must never be reused across executions.
type CorpusEntry struct {
	Label string
	Build func() exec.Operator
	// StopsEarly marks parallel plans whose root has its rows while workers
	// are still running (LIMIT over a parallel scan), so which rows come
	// back differs from run to run. The scan's reader counts only what it
	// hands out, so the workers' abandoned reads are never counted.
	StopsEarly bool
}

var corpusMem = struct {
	once sync.Once
	cat  *catalog.Catalog
}{}

// corpusCatalog builds the corpus data once: a unique-keyed dimension r1,
// a zipf-skewed fact r2 joining it, and two small relations r3/r4 for
// rescan-heavy cross products. Relations are read-only under execution, so
// the catalog is shared by every Build.
func corpusCatalog() *catalog.Catalog {
	corpusMem.once.Do(func() {
		cat := catalog.New(nil)
		cat.AddRelation(datagen.IntRelation("r1", "a", datagen.Sequence(80)))
		cat.AddRelation(datagen.IntRelation("r2", "b", datagen.ZipfValues(80, 480, 1.5, 3)))
		cat.AddRelation(datagen.IntRelation("r3", "c", datagen.Sequence(30)))
		cat.AddRelation(datagen.IntRelation("r4", "d", datagen.ZipfValues(10, 30, 1, 5)))
		cat.DeclareUnique("r1", "a")
		corpusMem.cat = cat
	})
	return corpusMem.cat
}

// Corpus returns the invariant corpus: small, deterministic plans covering
// the operator shapes whose bounds derivations differ — index nested
// loops, hash join + aggregation, embedded-predicate scans under sort/top,
// rescan-heavy nested loops (whose bounds legitimately never pin), merge
// join, scalar aggregation, a hash join emitting a subset of its columns,
// LIMIT abandoning a filtered scan directly and through a join, a parallel
// scan under an aggregate and a join, and LIMIT over a parallel scan whose
// workers read ahead of it. CheckProgressInvariants holds on every entry;
// the chaos harness replays them under fault schedules.
func Corpus() []CorpusEntry {
	lt := func(col string, v int64) plan.PredFn {
		return func(sch *schema.Schema) expr.Expr {
			return expr.Compare(expr.LT, expr.NewCol(sch, "", col), expr.Literal(sqlval.Int(v)))
		}
	}
	count := plan.AggSpec{Kind: expr.AggCountStar, As: "n"}
	return []CorpusEntry{
		{Label: "inl-skew", Build: func() exec.Operator {
			b := plan.NewBuilder(corpusCatalog())
			return b.Scan("r1").INLJoin("r2", "b", "a", exec.InnerJoin).Op
		}},
		{Label: "hash-join-agg", Build: func() exec.Operator {
			b := plan.NewBuilder(corpusCatalog())
			return b.Scan("r2").HashJoin(b.Scan("r1"), "b", "a", exec.InnerJoin).
				HashAgg(0, []string{"b"}, count).Op
		}},
		{Label: "filtered-sort-top", Build: func() exec.Operator {
			b := plan.NewBuilder(corpusCatalog())
			return b.ScanFiltered("r2", 0.5, lt("b", 40)).Sort("b").Top(25).Op
		}},
		{Label: "cross-rescan", Build: func() exec.Operator {
			b := plan.NewBuilder(corpusCatalog())
			return b.Cross(b.Scan("r3"), b.Scan("r4")).Filter(0.5, lt("d", 5)).Op
		}},
		{Label: "merge-join", Build: func() exec.Operator {
			b := plan.NewBuilder(corpusCatalog())
			return b.Scan("r1").Sort("a").MergeJoin(b.Scan("r2").Sort("b"), "a", "b").Op
		}},
		{Label: "scalar-agg", Build: func() exec.Operator {
			b := plan.NewBuilder(corpusCatalog())
			return b.Scan("r2").ScalarAgg(count).Op
		}},
		{Label: "pruned-left-join", Build: func() exec.Operator {
			// A width-pruned join: only r2.b leaves it, NULL on a miss.
			b := plan.NewBuilder(corpusCatalog())
			return b.Scan("r1").HashJoin(b.Scan("r2"), "a", "b", exec.LeftOuterJoin, plan.Columns{"b": true}).Op
		}},
		{Label: "limit-filtered-scan", Build: func() exec.Operator {
			// LIMIT over a pushed-down predicate: the scan is abandoned after
			// an unknown number of calls, so its static LB must not stand.
			b := plan.NewBuilder(corpusCatalog())
			return b.ScanFiltered("r2", 0.5, lt("b", 3)).Top(5).Op
		}},
		{Label: "limit-filtered-join", Build: func() exec.Operator {
			// The same through a join: the Top's cap stops at the join, the
			// abandoned probe scan is one level further down.
			b := plan.NewBuilder(corpusCatalog())
			return b.ScanFiltered("r2", 0.5, lt("b", 3)).
				HashJoin(b.Scan("r1"), "b", "a", exec.InnerJoin).Top(5).Op
		}},
		{Label: "parallel-scan-agg", Build: func() exec.Operator {
			b := plan.NewBuilder(corpusCatalog())
			return b.ParallelScan("r2", 4).ScalarAgg(count).Op
		}},
		{Label: "parallel-scan-join", Build: func() exec.Operator {
			b := plan.NewBuilder(corpusCatalog())
			return b.ParallelScan("r2", 3).HashJoin(b.Scan("r1"), "b", "a", exec.InnerJoin).Op
		}},
		{Label: "limit-parallel-scan", StopsEarly: true, Build: func() exec.Operator {
			// LIMIT over a parallel scan: the workers read rows ahead of the
			// reader, which counts only the rows the Top pulls.
			b := plan.NewBuilder(corpusCatalog())
			return b.ParallelScan("r2", 4).Top(5).Op
		}},
	}
}
