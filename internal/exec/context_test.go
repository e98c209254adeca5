package exec

import (
	"context"
	"errors"
	"testing"
	"time"
)

// slowPlan builds a plan producing n*n rows from two n-row inputs (an
// unfiltered nested-loops cross product), so a run lasts long enough for a
// context to fire mid-flight without materializing a huge relation.
func slowPlan(n int64) Operator {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	outer := NewScan(relOf("cr", []string{"a"}, rows))
	inner := NewScan(relOf("cs", []string{"b"}, rows))
	return NewNLJoin(outer, inner, nil)
}

// smallPlan is a quick plan for the no-cancel paths.
func smallPlan(n int64) Operator {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	return NewScan(relOf("small", []string{"a"}, rows))
}

func TestBindNoCancelPath(t *testing.T) {
	ctx := NewCtx()
	release := ctx.Bind(context.Background())
	rows, err := RunBatch(ctx, smallPlan(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	if got := release(); got != nil {
		t.Fatalf("release = %v, want nil", got)
	}
}

func TestRunContextDeadline(t *testing.T) {
	stdctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	// Keep scanning until the deadline fires: a scan over a large relation.
	_, err := RunBatchContext(stdctx, nil, slowPlan(8_000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestRunContextExplicitCancelStaysErrCanceled(t *testing.T) {
	stdctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := NewCtx()
	ctx.OnGetNext = func(calls int64) {
		if calls == 100 {
			ctx.Cancel()
		}
	}
	_, err := RunBatchContext(stdctx, ctx, slowPlan(2_000))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	stdctx, cancel := context.WithCancel(context.Background())
	ctx := NewCtx()
	go func() {
		for ctx.Calls() < 100 {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	_, err := RunBatchContext(stdctx, ctx, slowPlan(8_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBindAfterStartRace binds a context to an execution that is already
// mid-flight — the session layer's attach order inverted — and cancels
// through it. The AfterFunc callback races the executor; under -race this
// verifies the binding is safe to attach late, and the stop must still be
// reported as the binding's (context.Canceled), not an explicit cancel.
func TestBindAfterStartRace(t *testing.T) {
	ctx := NewCtx()
	runDone := make(chan error, 1)
	go func() {
		_, err := RunBatch(ctx, slowPlan(8_000))
		runDone <- err
	}()
	// Let the run get underway before binding.
	for ctx.Calls() < 50 {
		time.Sleep(20 * time.Microsecond)
	}
	stdctx, cancel := context.WithCancel(context.Background())
	release := ctx.Bind(stdctx)
	cancel()
	err := <-runDone
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("run err = %v, want ErrCanceled", err)
	}
	if got := release(); !errors.Is(got, context.Canceled) {
		t.Fatalf("release = %v, want context.Canceled", got)
	}
}

// TestRunContextPreExpiredDeadline submits against a deadline that has
// already passed: the run must stop at its first counted call and report
// the deadline, not a generic cancel.
func TestRunContextPreExpiredDeadline(t *testing.T) {
	stdctx, cancel := context.WithTimeout(context.Background(), -time.Millisecond)
	defer cancel()
	ctx := NewCtx()
	_, err := RunBatchContext(stdctx, ctx, slowPlan(8_000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The cancel check runs before a call is counted, so nothing was
	// counted as delivered work.
	if got := ctx.Calls(); got != 0 {
		t.Fatalf("Calls = %d, want 0", got)
	}
}

func TestRunContextPreCanceledContext(t *testing.T) {
	stdctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := NewCtx()
	_, err := RunBatchContext(stdctx, ctx, slowPlan(8_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ctx.Calls(); got != 0 {
		t.Fatalf("Calls = %d, want 0", got)
	}
}

// TestExplicitCancelBeatsLiveBinding holds a live (never-firing) binding
// while the query is explicitly canceled: release must report nil so the
// caller attributes the stop to the user, not the binding.
func TestExplicitCancelBeatsLiveBinding(t *testing.T) {
	stdctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := NewCtx()
	release := ctx.Bind(stdctx)
	ctx.OnGetNext = func(calls int64) {
		if calls == 100 {
			ctx.Cancel()
		}
	}
	_, err := RunBatch(ctx, slowPlan(8_000))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("run err = %v, want ErrCanceled", err)
	}
	if got := release(); got != nil {
		t.Fatalf("release = %v, want nil (binding never fired)", got)
	}
}

func TestBindReleaseAfterCompletion(t *testing.T) {
	// release must return promptly, and report no cancel, even though the
	// context never fires.
	stdctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := NewCtx()
	release := ctx.Bind(stdctx)
	if _, err := RunBatch(ctx, smallPlan(10)); err != nil {
		t.Fatal(err)
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- release() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("release = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("release did not return")
	}
}
