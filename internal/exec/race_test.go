package exec

import (
	"sync/atomic"
	"testing"

	"sqlprogress/internal/expr"
)

// TestConcurrentSamplerCancelsMidQuery is the concurrency regression test
// for the atomic ledger counters: a sampler goroutine continuously reads
// the context's global call counter and every operator's node snapshot
// while the plan executes on the test goroutine, then cancels the query
// mid-flight. With plain-field counters this test is a data race
// (`go test -race`); with atomics it must run clean and finish with
// ErrCanceled. The plan is bound before the sampler starts: binding must
// happen-before any reader.
func TestConcurrentSamplerCancelsMidQuery(t *testing.T) {
	const n = 400
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	r := relOf("r", []string{"a", "x"}, rows)
	s := relOf("s", []string{"b", "y"}, rows)
	scanR, scanS := NewScan(r), NewScan(s)
	// The NL join re-opens the inner scan once per outer row, so the sampler
	// observes every kind of counter transition: emissions, EOFs, and the
	// rescan bump that un-pins a finished run.
	j := NewNLJoin(scanR, scanS, expr.Compare(expr.EQ,
		expr.Col{Index: 1}, expr.Col{Index: 3}))

	EnsureLedger(j)
	ctx := NewCtx()
	ops := []Operator{j, scanR, scanS}
	var reads, incoherent atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			calls := ctx.Calls()
			for _, op := range ops {
				// Counters are monotone; any negative reading means a torn or
				// unsynchronized load. (Returned vs Delivered is deliberately
				// not compared: Snapshot loads them separately and an emit may
				// land in between.)
				snap := NodeSnapshot(op)
				if snap.Returned < 0 || snap.Delivered < 0 || snap.Rescans < 0 {
					incoherent.Add(1)
				}
			}
			reads.Add(1)
			if calls > 2_000 {
				ctx.Cancel()
				return
			}
		}
	}()
	_, err := RunBatch(ctx, j)
	<-done
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ctx.Calls() <= 2_000 {
		t.Fatalf("query stopped after only %d calls; the sampler never saw it mid-flight", ctx.Calls())
	}
	if reads.Load() == 0 {
		t.Fatal("sampler performed no reads")
	}
	if bad := incoherent.Load(); bad != 0 {
		t.Fatalf("%d incoherent runtime snapshots observed", bad)
	}
}
