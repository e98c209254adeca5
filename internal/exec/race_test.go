package exec

import (
	"testing"

	"sqlprogress/internal/expr"
)

// TestConcurrentSamplerCancelsMidQuery is the concurrency regression test
// for what other goroutines may touch of a running plan: the context's call
// counter (a status read: a session's Info, an SSE heartbeat) and Cancel. A goroutine reads Calls
// continuously while the plan executes on the test goroutine, then cancels
// the query mid-flight; under `go test -race` it must run clean and finish
// with ErrCanceled. The ledger is not read here: it is read only on the run's
// goroutine.
func TestConcurrentSamplerCancelsMidQuery(t *testing.T) {
	const n = 400
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	r := relOf("r", []string{"a", "x"}, rows)
	s := relOf("s", []string{"b", "y"}, rows)
	// The NL join re-opens the inner scan once per outer row, so the run
	// credits one row at a time for long enough to be caught mid-flight.
	j := NewNLJoin(NewScan(r), NewScan(s), expr.Compare(expr.EQ,
		expr.Col{Index: 1}, expr.Col{Index: 3}))

	ctx := NewCtx()
	var reads int64 // read after done closes
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			calls := ctx.Calls()
			reads++
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
		t.Fatalf("query stopped after only %d calls; the reader never saw it mid-flight", ctx.Calls())
	}
	if reads == 0 {
		t.Fatal("reader performed no reads")
	}
}
