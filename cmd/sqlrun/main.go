// Command sqlrun executes a SQL query over a generated database with a live
// progress display, printing per-estimator estimates as the query runs and
// an accuracy report when it finishes.
//
// Usage:
//
//	sqlrun -db tpch -sf 0.01 -z 2 "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag"
//	sqlrun -db skyserver "SELECT type, COUNT(*) FROM photoobj GROUP BY type"
//	sqlrun -db tpch -tpch-query 21        # run a built-in TPC-H plan instead of SQL
//	sqlrun -db tpch -explain "SELECT ..." # print the physical plan only
//	sqlrun -db none -i                    # interactive shell (CREATE/INSERT/SELECT)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"sqlprogress"
	"sqlprogress/internal/tpch"
)

func main() {
	var (
		dbKind    = flag.String("db", "tpch", "database: tpch | skyserver | none (empty)")
		repl      = flag.Bool("i", false, "interactive shell: statements terminated by ';'")
		sf        = flag.Float64("sf", 0.01, "TPC-H scale factor")
		z         = flag.Float64("z", 2, "zipf skew")
		seed      = flag.Int64("seed", 42, "generation seed")
		rows      = flag.Int64("rows", 40000, "SkyServer photoobj rows")
		tpchQuery = flag.Int("tpch-query", 0, "run a built-in TPC-H query plan (1-21) instead of SQL")
		estimator = flag.String("estimator", "safe", fmt.Sprintf("headline estimator, one of %v", sqlprogress.EstimatorKinds()))
		explain   = flag.Bool("explain", false, "print the physical plan and exit")
		maxRows   = flag.Int("max-rows", 10, "result rows to print")
		paged     = flag.Bool("paged", false, "spill the database to disk-backed paged storage before running")
		frames    = flag.Int("pool-frames", 0, "buffer pool frames when -paged (0 = pager default)")
		readCost  = flag.Int64("read-cost", 0, "extra GetNext units per physical page read when -paged")
	)
	flag.Parse()

	var db *sqlprogress.DB
	switch *dbKind {
	case "tpch":
		db = sqlprogress.OpenTPCH(*sf, *z, *seed)
	case "skyserver":
		db = sqlprogress.OpenSkyServer(*rows, *seed)
	case "none":
		db = sqlprogress.Open()
	default:
		fmt.Fprintf(os.Stderr, "unknown db %q\n", *dbKind)
		os.Exit(2)
	}

	if *paged {
		dir, err := os.MkdirTemp("", "sqlrun-heap-")
		if err != nil {
			fatal(err)
		}
		if err := db.SpillToDisk(dir, *frames); err != nil {
			fatal(err)
		}
		// Open descriptors keep the heap files readable for the process
		// lifetime; removing the directory now leaves nothing behind.
		os.RemoveAll(dir)
		if *readCost > 0 {
			for _, t := range db.Tables() {
				if err := db.SetReadCost(t, *readCost); err != nil {
					fatal(err)
				}
			}
		}
	}

	if *repl {
		runShell(db, *maxRows)
		return
	}

	var q *sqlprogress.Query
	switch {
	case *tpchQuery > 0:
		op, err := tpch.BuildQuery(db.Catalog(), *tpchQuery)
		if err != nil {
			fatal(err)
		}
		q = sqlprogress.WrapOperator(db, op)
	default:
		sql := strings.Join(flag.Args(), " ")
		if strings.TrimSpace(sql) == "" {
			fmt.Fprintln(os.Stderr, "no SQL given (and no -tpch-query)")
			os.Exit(2)
		}
		var err error
		q, err = db.Query(sql)
		if err != nil {
			fatal(err)
		}
	}

	if *explain {
		fmt.Print(q.Explain())
		fmt.Print(q.ExplainBounds())
		return
	}

	kinds := []sqlprogress.EstimatorKind{
		sqlprogress.Dne, sqlprogress.Pmax, sqlprogress.Safe,
	}
	headline := sqlprogress.EstimatorKind(*estimator)
	type sample struct {
		calls int64
		ests  map[sqlprogress.EstimatorKind]float64
	}
	var samples []sample
	var lastNodes []sqlprogress.NodeCount
	res, err := q.RunWithProgress(sqlprogress.ProgressOptions{
		Estimator: headline,
		Extra:     kinds,
	}, func(u sqlprogress.ProgressUpdate) {
		fmt.Printf("\rprogress %5.1f%%  [hard bounds %5.1f%% – %5.1f%%]",
			100*u.Estimate, 100*u.Lo, 100*u.Hi)
		ests := make(map[sqlprogress.EstimatorKind]float64, len(u.Estimates))
		for k, v := range u.Estimates {
			ests[k] = v
		}
		samples = append(samples, sample{calls: u.Calls, ests: ests})
		lastNodes = u.Nodes
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\rprogress 100.0%%%40s\n\n", "")

	fmt.Printf("%d row(s); total GetNext calls = %d; mu = %.3f\n", len(res.Rows), res.TotalCalls, res.Mu)
	if st, ok := db.PoolStats(); ok {
		fmt.Printf("buffer pool: %s\n", st)
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	for i, r := range res.Rows {
		if i >= *maxRows {
			fmt.Printf("... (%d more)\n", len(res.Rows)-*maxRows)
			break
		}
		fmt.Println(sqlprogress.FormatRow(r))
	}

	// Per-node ledger counters from the last sample: where the work went.
	if len(lastNodes) > 0 {
		fmt.Println("\nper-node work at the last sample (ledger counters):")
		for _, n := range lastNodes {
			fmt.Printf("  [%2d] %-32s calls=%-9d delivered=%-9d rescans=%-5d done=%v\n",
				n.ID, n.Name, n.Calls, n.Delivered, n.Rescans, n.Done)
		}
	}

	// Post-hoc accuracy report.
	if len(samples) > 0 {
		fmt.Println("\nestimator accuracy over this run (vs true progress):")
		all := append([]sqlprogress.EstimatorKind{headline}, kinds...)
		seen := map[sqlprogress.EstimatorKind]bool{}
		for _, k := range all {
			if seen[k] {
				continue
			}
			seen[k] = true
			var maxErr, sumErr float64
			for _, s := range samples {
				truth := float64(s.calls) / float64(res.TotalCalls)
				if e, ok := s.ests[k]; ok {
					d := e - truth
					if d < 0 {
						d = -d
					}
					if d > maxErr {
						maxErr = d
					}
					sumErr += d
				}
			}
			fmt.Printf("  %-12s max abs err %5.2f%%   avg abs err %5.2f%%\n",
				k, 100*maxErr, 100*sumErr/float64(len(samples)))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqlrun:", err)
	os.Exit(1)
}

// runShell reads ';'-terminated statements from stdin and executes them,
// showing a progress bar for SELECTs.
func runShell(db *sqlprogress.DB, maxRows int) {
	fmt.Println("sqlprogress shell — statements end with ';', tables:", strings.Join(db.Tables(), ", "))
	fmt.Println(`type "\q" to quit, "\t" to list tables`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	fmt.Print("sql> ")
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case `\q`:
			return
		case `\t`:
			fmt.Println(strings.Join(db.Tables(), ", "))
			fmt.Print("sql> ")
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Print("  -> ")
			continue
		}
		stmt := pending.String()
		pending.Reset()
		execShellStatement(db, stmt, maxRows)
		fmt.Print("sql> ")
	}
}

func execShellStatement(db *sqlprogress.DB, stmt string, maxRows int) {
	res, err := db.Run(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	switch {
	case res.Created != "":
		fmt.Printf("created table %s\n", res.Created)
	case res.Dropped != "":
		fmt.Printf("dropped table %s\n", res.Dropped)
	case res.Query == nil:
		fmt.Printf("%d row(s) inserted\n", res.RowsAffected)
	default:
		q := res.Query
		fmt.Println(strings.Join(q.Columns, " | "))
		for i, r := range q.Rows {
			if i >= maxRows {
				fmt.Printf("... (%d more)\n", len(q.Rows)-maxRows)
				break
			}
			fmt.Println(sqlprogress.FormatRow(r))
		}
		fmt.Printf("(%d row(s); %d GetNext calls; mu=%.3f)\n", len(q.Rows), q.TotalCalls, q.Mu)
	}
}
