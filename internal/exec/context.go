package exec

import (
	"context"

	"sqlprogress/internal/schema"
)

// Bind propagates a standard library context's cancellation and deadline
// into this execution context: when stdctx is done, Cancel is called and the
// run stops at its next counted GetNext call with ErrCanceled.
//
// Bind registers Cancel with context.AfterFunc; the returned release
// function unregisters it and must be called exactly once, after the run
// finishes (defer it). release reports how the binding ended: nil if Cancel
// was never called for it, or stdctx.Err() (context.Canceled /
// context.DeadlineExceeded) if the binding is what canceled the execution —
// callers use it to distinguish a server deadline or client disconnect from
// an explicit user Cancel.
//
// Binding a context with no cancellation path (Done() == nil, e.g.
// context.Background()) is free: nothing is registered.
func (c *Ctx) Bind(stdctx context.Context) (release func() error) {
	if stdctx == nil || stdctx.Done() == nil {
		return func() error { return nil }
	}
	if err := stdctx.Err(); err != nil {
		// Already done: cancel synchronously so the run stops at its first
		// counted call, instead of racing a callback goroutine that may not
		// be scheduled for thousands of calls.
		c.Cancel()
		return func() error { return err }
	}
	stop := context.AfterFunc(stdctx, c.Cancel)
	return func() error {
		if stop() {
			return nil
		}
		return stdctx.Err()
	}
}

// RunBatchContext drains the operator tree like RunBatch, honouring stdctx:
// if the context is canceled or its deadline expires mid-run, execution
// stops and RunBatchContext returns stdctx.Err() instead of ErrCanceled. An
// explicit Ctx.Cancel still surfaces as ErrCanceled.
func RunBatchContext(stdctx context.Context, ctx *Ctx, op Operator) ([]schema.Row, error) {
	if ctx == nil {
		ctx = NewCtx()
	}
	release := ctx.Bind(stdctx)
	rows, err := RunBatch(ctx, op)
	if bindErr := release(); bindErr != nil && err == ErrCanceled {
		return nil, bindErr
	}
	return rows, err
}
