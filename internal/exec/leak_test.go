package exec_test

import (
	"errors"
	"testing"

	"sqlprogress/internal/coretest"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
)

// TestParallelOperatorsLeakNoGoroutines: the parallel scan, the one operator
// on the gather transport, must be back to zero worker goroutines once Close
// returns, however the run ended — drained, failed by an injected fault,
// canceled, or closed by a reader that stopped pulling while workers were
// blocked sending.
func TestParallelOperatorsLeakNoGoroutines(t *testing.T) {
	const workers = 4
	fact := datagen.IntRelation("fact", "k", datagen.ZipfValues(50, 20000, 1, 7))
	plans := map[string]func() exec.Operator{
		"ParallelScan": func() exec.Operator { return exec.NewParallelScan(fact, workers) },
	}
	boom := errors.New("boom")
	endings := map[string]func(t *testing.T, op exec.Operator){
		"success": func(t *testing.T, op exec.Operator) {
			if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
				t.Fatal(err)
			}
		},
		"injected error": func(t *testing.T, op exec.Operator) {
			ctx := exec.NewCtx()
			ctx.Inject = func(calls int64) error {
				if calls == 5000 {
					return boom
				}
				return nil
			}
			if _, err := exec.RunBatch(ctx, op); !errors.Is(err, boom) {
				t.Fatalf("got %v, want the injected error", err)
			}
		},
		"cancel": func(t *testing.T, op exec.Operator) {
			ctx := exec.NewCtx()
			ctx.Inject = func(calls int64) error {
				if calls == 5000 {
					ctx.Cancel()
				}
				return nil
			}
			if _, err := exec.RunBatch(ctx, op); !errors.Is(err, exec.ErrCanceled) {
				t.Fatalf("got %v, want ErrCanceled", err)
			}
		},
		"close before drain": func(t *testing.T, op exec.Operator) {
			ctx := exec.NewCtx()
			ctx.BatchSize = 16 // many more batches than the channel holds
			exec.EnsureLedger(op)
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			if err := op.NextBatch(ctx, &exec.Batch{}, 1); err != nil {
				t.Fatal(err)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, build := range plans {
		for ending, run := range endings {
			t.Run(name+"/"+ending, func(t *testing.T) {
				op := build()
				coretest.CheckNoGoroutineLeak(t, func() { run(t, op) })
			})
		}
	}
}
