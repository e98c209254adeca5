// estimator_tradeoffs demonstrates Section 6's conclusion that no single
// estimator wins everywhere, and that the choice cannot be made by a
// provable runtime test (Theorems 7 and 8) — only heuristically:
//
//  1. worst-case order (Figure 5): safe beats dne and pmax;
//  2. the same query with the skewed keys filtered out (Figure 7): dne is
//     near-exact and safe pays ~20-30% for its worst-case insurance;
//  3. the hybrid of Section 6.4 (observe the running mu / variance and
//     switch) lands near the better estimator in both.
package main

import (
	"fmt"

	"sqlprogress"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

const n = 30_000

var kinds = []sqlprogress.EstimatorKind{
	sqlprogress.Dne, sqlprogress.Pmax, sqlprogress.Safe,
	sqlprogress.HybridMu, sqlprogress.HybridVar,
}

func main() {
	pair := datagen.NewSkewPair(n, n, 2.0, 7)
	db := sqlprogress.Open()
	db.Catalog().AddRelation(pair.R1)
	db.Catalog().AddRelation(pair.R2)
	db.DeclareUnique("r1", "a")

	fmt.Println("scenario 1 — worst-case order (heavy key last), Figure 5:")
	report(db, func(b *plan.Builder) plan.Node {
		return b.ScanOrdered("r1", pair.Order(datagen.OrderSkewLast, 3)).
			INLJoin("r2", "b", "a", exec.InnerJoin)
	})

	fmt.Println("\nscenario 2 — heavy keys filtered out (favourable case), Figure 7:")
	report(db, func(b *plan.Builder) plan.Node {
		return b.ScanFilteredOrdered("r1", pair.Order(datagen.OrderSkewLast, 3), 0.99,
			func(s *schema.Schema) expr.Expr {
				// keys 0..n/100 carry the skew; drop them.
				return expr.Compare(expr.GE, expr.NewCol(s, "", "a"),
					expr.Literal(sqlval.Int(int64(n/100))))
			}).
			INLJoin("r2", "b", "a", exec.InnerJoin)
	})

	fmt.Println("\nno single column wins both rows — the paper's 'tool-kit, chosen")
	fmt.Println("heuristically' conclusion; the hybrids track the better native choice.")
}

func report(db *sqlprogress.DB, build func(*plan.Builder) plan.Node) {
	q := db.QueryPlan(build(db.Builder()))
	type point struct {
		calls int64
		ests  map[sqlprogress.EstimatorKind]float64
	}
	var pts []point
	res, err := q.RunWithProgress(sqlprogress.ProgressOptions{
		Estimator: kinds[0], Extra: kinds[1:], Every: n / 60,
	}, func(u sqlprogress.ProgressUpdate) {
		m := make(map[sqlprogress.EstimatorKind]float64, len(u.Estimates))
		for k, v := range u.Estimates {
			m[k] = v
		}
		pts = append(pts, point{calls: u.Calls, ests: m})
	})
	if err != nil {
		panic(err)
	}
	pts = pts[1:] // pts[0] is frame 0 (Calls 0): nothing to score yet
	for _, k := range kinds {
		var worst, sum float64
		for _, p := range pts {
			actual := float64(p.calls) / float64(res.TotalCalls)
			d := p.ests[k] - actual
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
			sum += d
		}
		fmt.Printf("  %-11s max abs err %5.1f%%   avg %5.1f%%\n",
			k, 100*worst, 100*sum/float64(len(pts)))
	}
}
