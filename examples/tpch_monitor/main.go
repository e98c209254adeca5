// tpch_monitor generates the skewed TPC-H database and monitors a few
// benchmark queries with the full estimator tool-kit, printing each query's
// mu (the pmax error bound of Theorem 5) and each estimator's realized
// accuracy — a live miniature of the paper's Table 2.
package main

import (
	"fmt"

	"sqlprogress"
	"sqlprogress/internal/tpch"
)

func main() {
	const sf, z = 0.005, 2.0
	fmt.Printf("generating TPC-H (SF=%g, zipf z=%g)...\n", sf, z)
	db := sqlprogress.OpenTPCH(sf, z, 42)

	kinds := []sqlprogress.EstimatorKind{
		sqlprogress.Dne, sqlprogress.Pmax, sqlprogress.Safe, sqlprogress.HybridMu,
	}

	fmt.Printf("\n%-5s %-7s", "query", "mu")
	for _, k := range kinds {
		fmt.Printf("  %-12s", string(k)+" max")
	}
	fmt.Println()

	for _, num := range []int{1, 4, 6, 13, 18, 21} {
		op, err := tpch.BuildQuery(db.Catalog(), num)
		if err != nil {
			panic(err)
		}
		q := sqlprogress.WrapOperator(db, op)

		type point struct {
			calls int64
			ests  map[sqlprogress.EstimatorKind]float64
		}
		var pts []point
		res, err := q.RunWithProgress(sqlprogress.ProgressOptions{
			Estimator: kinds[0],
			Extra:     kinds[1:],
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

		fmt.Printf("Q%-4d %-7.3f", num, res.Mu)
		for _, k := range kinds {
			worst := 0.0
			for _, p := range pts[1:] { // pts[0] is frame 0 (Calls 0): nothing to score yet
				actual := float64(p.calls) / float64(res.TotalCalls)
				d := p.ests[k] - actual
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
			fmt.Printf("  %-12s", fmt.Sprintf("%.1f%%", 100*worst))
		}
		fmt.Println()
	}

	fmt.Println("\nsmall mu => pmax is tightly bounded (Theorem 5); Q1's tiny per-tuple")
	fmt.Println("variance makes dne near-exact (Figure 3); Q21's bounds refine as its")
	fmt.Println("subquery pipelines finish, so errors decay over execution (Figure 6).")
}
