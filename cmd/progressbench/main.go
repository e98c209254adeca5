// Command progressbench regenerates the paper's tables and figures from the
// accuracy matrix's paper cells (internal/evalmatrix), the same runs
// BENCH_ACC.json records.
//
// Usage:
//
//	progressbench -experiment all            # every artifact, paper order
//	progressbench -experiment fig4           # one artifact
//	progressbench -experiment fig5 -csv      # raw series as CSV
//	progressbench -list
//
// Absolute numbers differ from the paper (the substrate is this package's
// own engine, not SQL Server 2005 on 1 GB data); the shapes are the claims
// evalmatrix.PaperClaims checks, recorded against the paper's values in
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"sqlprogress/internal/evalmatrix"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "artifact id (see -list) or 'all'")
		csv        = flag.Bool("csv", false, "emit raw series as CSV instead of rendered tables")
		list       = flag.Bool("list", false, "list artifacts and exit")
	)
	flag.Parse()

	arts := evalmatrix.PaperArtifacts()
	if *list {
		for _, a := range arts {
			fmt.Printf("%-6s %s\n", a.ID, a.Title)
		}
		return
	}
	var ids []string
	if *experiment != "all" {
		ids = []string{*experiment}
	}
	scored, err := evalmatrix.RunPaper(evalmatrix.DefaultOptions(), ids...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "progressbench:", err)
		os.Exit(2)
	}
	for _, a := range arts {
		if len(ids) > 0 && a.ID != ids[0] {
			continue
		}
		r := a.Report(scored)
		if *csv {
			fmt.Print(r.CSV())
		} else {
			fmt.Println(r.Render())
		}
	}
}
