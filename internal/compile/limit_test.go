package compile

import (
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/tpch"
)

// TestLimitBoundsReproductions pins the two shapes that used to report
// LB > total(Q): a LIMIT abandoning a scan with a pushed-down predicate,
// directly and through a join. Each runs sampled at every call and at the
// credit instants of 16-row pulls, and the series must hold
// LB <= total <= UB throughout. The unfiltered LIMIT keeps the
// exact bounds the demand cap gives it.
func TestLimitBoundsReproductions(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 1, Seed: 42})
	for _, sql := range []string{
		"SELECT l_orderkey FROM lineitem WHERE l_quantity > 15 LIMIT 5",
		"SELECT l_orderkey FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 15 LIMIT 5",
	} {
		for _, batch := range []bool{false, true} {
			op, err := CompileSQL(cat, sql)
			if err != nil {
				t.Fatal(err)
			}
			mon, _ := runMonitored(t, op, batch)
			if mon.Total() >= cat.MustStore("lineitem").Cardinality() {
				t.Fatalf("%s: %d calls: the LIMIT no longer stops the scan early", sql, mon.Total())
			}
			if err := core.SeriesOf(sql, &mon.SampleSet).Check(); err != nil {
				t.Fatalf("batch=%v: %v", batch, err)
			}
		}
	}
	op, err := CompileSQL(cat, "SELECT l_orderkey FROM lineitem LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if snap := core.NewBoundsEvaluator(op).Compute(); snap.LB != 15 || snap.UB != 15 {
		t.Fatalf("unfiltered LIMIT 5 before the run: bounds [%d,%d], want [15,15]", snap.LB, snap.UB)
	}
}
