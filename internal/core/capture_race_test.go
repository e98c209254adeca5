package core_test

import (
	"testing"

	"sqlprogress/internal/compile"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/tpch"
)

// TestCaptureRacingRunIsOneInstant: a capture's bounds pass folds the ledger
// read its Curr and drivers come from, so however far the run moves while a
// capture reads, every capture has Curr <= LB — each node's refined LB
// covers its own Returned in the read — and every driver's Total covers its
// Returned. Captures race RunBatch of three compiled TPC-H statements whose
// output nodes have no static lower bound: aggregates and a join emitting
// rows one credit at a time. Twenty runs of each.
func TestCaptureRacingRunIsOneInstant(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.01, Z: 1, Seed: 1})
	for _, sql := range []string{
		"SELECT l_orderkey, COUNT(*) FROM lineitem GROUP BY l_orderkey",
		"SELECT l_orderkey, l_partkey, COUNT(*) FROM lineitem GROUP BY l_orderkey, l_partkey",
		"SELECT o_orderdate, COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey GROUP BY o_orderdate",
	} {
		captures := 0
		for run := 0; run < 20; run++ {
			op, err := compile.CompileSQL(cat, sql)
			if err != nil {
				t.Fatal(err)
			}
			tr := core.NewTracker(op)
			done := make(chan error, 1)
			go func() {
				_, err := exec.RunBatch(exec.NewCtx(), op)
				done <- err
			}()
			for running := true; running; {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					running = false
				default:
				}
				s := tr.Capture()
				captures++
				if s.Curr > s.LB {
					t.Fatalf("%s: run %d capture %d: Curr %d exceeds LB %d", sql, run, captures, s.Curr, s.LB)
				}
				for i, d := range s.Drivers {
					if float64(d.Returned) > d.Total {
						t.Fatalf("%s: run %d capture %d: driver %d returned %d, total %v", sql, run, captures, i, d.Returned, d.Total)
					}
				}
			}
		}
		t.Logf("%s: %d captures", sql, captures)
	}
}
