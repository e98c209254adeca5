package session

import (
	"path/filepath"
	"slices"
	"testing"
	"time"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/compile"
	"sqlprogress/internal/coretest"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/tpch"
)

// spilledCatalog returns testCatalog's data with lineitem and orders served
// from heap files through a small buffer pool.
func spilledCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 7})
	pool := pager.NewPool(32)
	for _, name := range []string{"lineitem", "orders"} {
		path := filepath.Join(t.TempDir(), name+".heap")
		if err := pager.WriteRelation(path, cat.MustRelation(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.AttachHeapFile(path, pool); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestFramesAreCreditReads: every frame a session publishes is one ledger
// read at a credit instant. Sessions sampled every 50 µs run a join, a
// grouped aggregate and a top-k sort, in memory and paged. Each event's node
// counters, accumulated over the delta stream, must sum to its Calls and
// equal a read that a hook-free twin run of the same statement takes —
// before the run, after a credit, or after the run — and the events must
// meet those reads in order.
func TestFramesAreCreditReads(t *testing.T) {
	interior := 0
	for _, c := range []struct {
		name string
		cat  *catalog.Catalog
	}{{"memory", testCatalog(t)}, {"paged", spilledCatalog(t)}} {
		m := New(c.cat, Config{SampleInterval: 50 * time.Microsecond})
		for _, sql := range []string{
			"SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey",
			"SELECT l_suppkey, COUNT(*) FROM lineitem GROUP BY l_suppkey",
			"SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10",
		} {
			twin, err := compile.CompileSQL(c.cat, sql)
			if err != nil {
				t.Fatal(err)
			}
			reads, err := coretest.CreditReads(twin, 0)
			if err != nil {
				t.Fatal(err)
			}
			gate := make(chan struct{})
			// The gate installs no hook: the run keeps its bulk pulls.
			s, err := m.Submit(sql, SubmitOptions{Instrument: func(*exec.Ctx) { <-gate }})
			if err != nil {
				t.Fatal(err)
			}
			ch := subscribeAll(s) // frame 0 is published before the gate
			close(gate)
			node := make([]ledger.Snapshot, len(reads[0]))
			at, events := 0, 0
			for p := range ch {
				for _, n := range p.Nodes {
					node[n.ID] = ledger.Snapshot{Returned: n.Calls, Delivered: n.Delivered, Rescans: n.Rescans, Done: n.Done}
				}
				var sum int64
				for _, n := range node {
					sum += n.Returned
				}
				if sum != p.Calls {
					t.Fatalf("%s: %s: event %d: nodes sum to %d calls, the event says %d", c.name, sql, p.Seq, sum, p.Calls)
				}
				k := slices.IndexFunc(reads[at:], func(r []ledger.Snapshot) bool { return slices.Equal(r, node) })
				if k < 0 {
					t.Fatalf("%s: %s: event %d at %d calls: nodes %+v are no read the twin took at or after its read %d", c.name, sql, p.Seq, p.Calls, node, at)
				}
				at += k
				events++
				if at > 0 && at < len(reads)-1 {
					interior++
				}
			}
			if st := s.Summary().State; st != StateFinished {
				t.Fatalf("%s: %s: state = %s, err = %v", c.name, sql, st, s.Info().Error)
			}
			t.Logf("%s: %s: %d events over %d twin reads", c.name, sql, events, len(reads))
		}
		m.Close()
	}
	if interior == 0 {
		t.Fatal("no event fell between the first and the last read: nothing was checked mid-run")
	}
}
