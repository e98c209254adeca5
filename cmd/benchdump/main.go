// Command benchdump runs the estimator accuracy matrix (dataset x
// stats-health x plan-family sweep, one row per cell per estimator) at the
// standard scale, prints the per-cell table and writes the artifact.
//
// The artifact is fully deterministic — no date, no host facts — so CI
// demands byte-identical re-runs and cmd/benchgate compares exact floats
// against the checked-in BENCH_ACC.json. Timings are not this command's
// job: performance is measured by benchmark/ (see BENCHMARK.json).
//
// Usage:
//
//	go run ./cmd/benchdump [-o BENCH_ACC.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"sqlprogress/internal/evalmatrix"
)

func main() {
	out := flag.String("o", "BENCH_ACC.json", "output path")
	flag.Parse()

	rows, err := evalmatrix.Run(evalmatrix.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, "accuracy matrix:", err)
		os.Exit(1)
	}
	fmt.Print(evalmatrix.Table(rows).Render())
	if err := evalmatrix.WriteFile(*out, rows); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
