// skew_adversarial replays the paper's Section 5 synthetic experiment live:
// R1(A) with unique keys joins R2(B) whose join column is zipfian (z = 2),
// by index nested loops. The arrival order of R1's tuples decides which
// estimator survives:
//
//   - skew-first (Figure 4): dne collapses to near zero, pmax stays within mu;
//   - skew-last (Figure 5): dne claims ~100% long before the heavy tuple's
//     work arrives, safe stays closer;
//   - random (Theorem 3): dne is nearly exact.
package main

import (
	"fmt"

	"sqlprogress/internal/core"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"

	"sqlprogress"
)

const n = 30_000

func main() {
	pair := datagen.NewSkewPair(n, n, 2.0, 7)
	db := sqlprogress.Open()
	db.Catalog().AddRelation(pair.R1)
	db.Catalog().AddRelation(pair.R2)
	db.DeclareUnique("r1", "a") // keys are unique => the join is linear

	fmt.Printf("R1: %d unique keys; R2: %d rows, zipf z=2 (heaviest key joins %d rows, %.0f%% of all work)\n\n",
		n, n, pair.Fanout[0], 100*float64(pair.Fanout[0])/float64(n))

	for _, order := range []datagen.OrderKind{datagen.OrderSkewFirst, datagen.OrderSkewLast, datagen.OrderRandom} {
		runOrder(db, pair, order)
	}
}

func runOrder(db *sqlprogress.DB, pair *datagen.SkewPair, order datagen.OrderKind) {
	b := db.Builder()
	node := b.ScanOrdered("r1", pair.Order(order, 99)).
		INLJoin("r2", "b", "a", exec.InnerJoin)
	q := db.QueryPlan(node)

	var samples []sqlprogress.ProgressUpdate
	res, err := q.RunWithProgress(sqlprogress.ProgressOptions{
		Estimator: sqlprogress.Dne,
		Extra:     []sqlprogress.EstimatorKind{sqlprogress.Pmax, sqlprogress.Safe},
		Every:     int64(n) / 50,
	}, func(u sqlprogress.ProgressUpdate) { samples = append(samples, u) })
	if err != nil {
		panic(err)
	}
	samples = samples[1:] // samples[0] is frame 0 (Calls 0): nothing to score yet

	fmt.Printf("--- arrival order: %s (mu = %.3f) ---\n", order, res.Mu)
	fmt.Println("actual   dne    pmax   safe")
	for i, u := range samples {
		if i%12 != 0 && i != len(samples)-1 {
			continue
		}
		actual := float64(u.Calls) / float64(res.TotalCalls)
		fmt.Printf("%5.2f  %5.2f  %5.2f  %5.2f\n",
			actual, u.Estimates[sqlprogress.Dne],
			u.Estimates[sqlprogress.Pmax], u.Estimates[sqlprogress.Safe])
	}
	for _, kind := range []sqlprogress.EstimatorKind{sqlprogress.Dne, sqlprogress.Pmax, sqlprogress.Safe} {
		fmt.Printf("  %-5s max abs err %5.1f%%\n", kind, 100*maxAbsErr(samples, res.TotalCalls, kind))
	}
	fmt.Println()
	_ = core.Mu // (core re-exported quantities shown via res.Mu)
}

func maxAbsErr(samples []sqlprogress.ProgressUpdate, total int64, kind sqlprogress.EstimatorKind) float64 {
	worst := 0.0
	for _, u := range samples {
		actual := float64(u.Calls) / float64(total)
		d := u.Estimates[kind] - actual
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
