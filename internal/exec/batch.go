package exec

import (
	"slices"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// This file implements batch-at-a-time (vectorized) execution. The design
// constraint is the paper's: progress is accounted in GetNext calls, and the
// ledger trajectories the estimators read must be indistinguishable from the
// row-at-a-time engine's. The engine therefore has two regimes:
//
//   - Fast path (RunBatch with no per-call hooks): operators move row chunks
//     and credit their ledger slots in bulk — one interface dispatch and a
//     handful of atomic adds per ~1024 rows instead of per row. Every
//     operator fully processes each input chunk before returning, so
//     whenever a root batch is handed back the whole tree is quiescent and
//     the ledger state is exactly the row engine's at the same Curr (the
//     batch-vs-row differential check in internal/coretest proves this over
//     the invariant corpus).
//
//   - Exact path (Ctx.Inject or Ctx.OnGetNext set): per-call observation
//     demands the precise row-engine call sequence, so NextBatch degrades to
//     FillFromNext, which drives the operator's own row-at-a-time Next. The
//     run is then call-for-call identical to exec.Run — faults and
//     cancellations land mid-batch at the exact injected call count — while
//     the root still assembles batches.
//
// Three operators keep row-wise pulls even on the fast path, batching only
// their output: Top (a LIMIT must consume its input lazily or it would
// over-count child work the row engine never performs), MergeJoin (its two
// inputs advance at data-dependent rates, so chunked lookahead would hold
// counted-but-unmerged rows across quiesce points), and NLJoin (per-outer
// rescans of a counted subtree are inherently row-grained).

// DefaultBatchSize is the row-chunk size the vectorized engine moves between
// operators when Ctx.BatchSize is zero. Large enough to amortize interface
// dispatch and ledger credits to noise, small enough that per-partition
// progress never lags the counters by more than a chunk.
const DefaultBatchSize = 1024

// Batch is a chunk of rows moved between operators under batch-at-a-time
// execution. The Rows slice is owned by the producing operator and reused
// across NextBatch calls: consumers must copy out any row pointers they
// retain past the next pull (the rows themselves remain valid indefinitely,
// as in the row engine — they are fresh allocations or references into
// immutable base relations).
type Batch struct {
	Rows []schema.Row
}

// Reset empties the batch, keeping its backing capacity.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Append adds one row.
func (b *Batch) Append(r schema.Row) { b.Rows = append(b.Rows, r) }

// BatchOperator is implemented by every physical operator in this package:
// NextBatch fills b with the operator's next chunk of output rows. An empty
// batch signals end of stream (the operator has marked its ledger slot
// done); a non-empty batch smaller than the nominal batch size carries no
// EOF meaning — callers must pull until empty.
type BatchOperator interface {
	Operator
	NextBatch(ctx *Ctx, b *Batch) error
}

// batchSize returns the chunk size for this execution.
func (c *Ctx) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// fastPath reports whether bulk (vectorized) accounting is permitted: the
// run was started by RunBatch and no per-call hook demands exact
// call-sequence accounting.
func (c *Ctx) fastPath() bool {
	return c.vectorized && c.Inject == nil && c.OnGetNext == nil
}

// tickN advances the global GetNext counter by n. On the fast path it is a
// single atomic add; with hooks installed it degrades to n individual ticks
// so Inject and OnGetNext observe every exact call count and a fault aborts
// at precisely its scheduled call (the calls before it, and the faulting
// call itself, remain counted).
func (c *Ctx) tickN(n int64) error {
	if c.Inject == nil && c.OnGetNext == nil {
		c.calls.Add(n)
		return nil
	}
	for i := int64(0); i < n; i++ {
		if err := c.tick(); err != nil {
			return err
		}
	}
	return nil
}

// creditRows bulk-credits n rows emitted into a batch: n counted GetNext
// calls, all delivered. The fast-path analogue of n base.emit calls;
// cancellation is honored at batch granularity (the chunk's work happened,
// so it stays counted, matching emit's the-row-still-counts rule).
func (b *base) creditRows(ctx *Ctx, n int) error {
	if n == 0 {
		return nil
	}
	if ctx.canceled.Load() {
		return ErrCanceled
	}
	b.slot.CountCalls(int64(n))
	b.slot.CountDeliveredN(int64(n))
	return ctx.tickN(int64(n))
}

// creditScan bulk-credits a scan chunk: calls counted GetNext calls
// (rows read) of which delivered passed the embedded predicate and were
// handed to the parent. The fast-path analogue of interleaved
// emit/countScanned calls.
func (b *base) creditScan(ctx *Ctx, calls, delivered int) error {
	if calls == 0 {
		return nil
	}
	if ctx.canceled.Load() {
		return ErrCanceled
	}
	b.slot.CountCalls(int64(calls))
	if delivered > 0 {
		b.slot.CountDeliveredN(int64(delivered))
	}
	return ctx.tickN(int64(calls))
}

// creditScanWeighted is creditScan plus weighted physical-read units from
// the storage layer (pager reads under a nonzero read cost): the units are
// extra counted GetNext calls attributed to the scan node with no row
// delivered, so Curr reflects I/O work while parent cardinalities stay
// row-based.
func (b *base) creditScanWeighted(ctx *Ctx, calls, delivered int, units int64) error {
	if units == 0 {
		return b.creditScan(ctx, calls, delivered)
	}
	if ctx.canceled.Load() {
		return ErrCanceled
	}
	b.slot.CountCalls(int64(calls) + units)
	if delivered > 0 {
		b.slot.CountDeliveredN(int64(delivered))
	}
	return ctx.tickN(int64(calls) + units)
}

// chargeUnits credits weighted physical-read units on the row path: n
// counted GetNext units of pure I/O work, no row delivered. With hooks
// installed the units degrade to individual ticks, so fault schedules can
// land inside a page read's accounting.
func (b *base) chargeUnits(ctx *Ctx, n int64) error {
	if ctx.canceled.Load() {
		return ErrCanceled
	}
	b.slot.CountCalls(n)
	return ctx.tickN(n)
}

// FillFromNext assembles a batch by pulling op's row-at-a-time Next up to
// want rows — the row→batch bridge. It is used for operators without a
// native vectorized path and whenever per-call hooks force exact
// call-sequence accounting; since op.Next pulls its own children row by
// row, a bridged subtree executes with precisely the row engine's
// accounting. A short batch here does mean EOF, but callers uniformly treat
// only the empty batch as end of stream.
func FillFromNext(ctx *Ctx, op Operator, b *Batch, want int) error {
	b.Reset()
	for b.Len() < want {
		row, ok, err := op.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		b.Append(row)
	}
	return nil
}

// nextBatch pulls one batch from op: natively when op implements
// BatchOperator (every operator in this package does), via the row bridge
// otherwise.
func nextBatch(ctx *Ctx, op Operator, b *Batch) error {
	if bo, ok := op.(BatchOperator); ok {
		return bo.NextBatch(ctx, b)
	}
	return FillFromNext(ctx, op, b, ctx.batchSize())
}

// rowArena carves fresh fixed-width rows out of chunked backing slabs, so
// operators that build output rows (projections, join concatenations) pay
// one allocation per ~chunk of rows instead of one per row. Carved rows are
// full-capacity sub-slices: they never alias their neighbours and remain
// valid indefinitely (the arena only ever abandons exhausted chunks, it
// never reuses them).
type rowArena struct {
	buf []sqlval.Value
}

// arenaChunkRows is how many rows' worth of values a fresh slab holds.
const arenaChunkRows = 256

// row returns a zeroed row of width w.
func (a *rowArena) row(w int) schema.Row {
	if w == 0 {
		return schema.Row{}
	}
	if len(a.buf) < w {
		a.buf = make([]sqlval.Value, arenaChunkRows*w)
	}
	r := a.buf[:w:w]
	a.buf = a.buf[w:]
	return schema.Row(r)
}

// concat returns l ++ r carved from the arena.
func (a *rowArena) concat(l, r schema.Row) schema.Row {
	out := a.row(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// RunBatch drains an operator tree to completion batch-at-a-time, returning
// all produced root rows. It is the vectorized counterpart of Run and
// produces the identical result multiset, identical final ledger counts,
// and — at every root-batch quiesce point — identical dne/pmax/safe
// estimator inputs; with per-call hooks installed the run is call-for-call
// identical to Run.
func RunBatch(ctx *Ctx, op Operator) ([]schema.Row, error) {
	return RunBatchObserved(ctx, op, nil)
}

// RunBatchObserved is RunBatch with a quiesce-point observer: observe (when
// non-nil) is invoked with the current Curr after every non-empty root batch
// has been collected, once more at EOF, and — inside a blocking operator's
// Open, where a plan under a sort, an aggregate or a hash build spends its
// run — after each batch of its child has been taken in (drain). At each
// invocation no operator holds counted-but-unprocessed rows, so a sampler
// reading the ledger sees a state the row engine reaches at the same Curr —
// the property the batch-vs-row differential check is built on. observe only
// ever runs on the calling goroutine: a plan whose workers drain partitions
// on goroutines of their own is observed at the root batches alone.
func RunBatchObserved(ctx *Ctx, op Operator, observe func(curr int64)) ([]schema.Row, error) {
	if ctx == nil {
		ctx = NewCtx()
	}
	ctx.vectorized = true
	ctx.observe = nil
	if observe != nil && onOneGoroutine(op) {
		ctx.observe = observe
	}
	EnsureLedger(op)
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	out := make([]schema.Row, 0, resultCapHint(op, ctx.batchSize()))
	var b Batch
	want := ctx.batchSize()
	for {
		// Hand the root operator out's spare capacity as its output buffer:
		// when the batch fits without reallocating, collecting it is a
		// length extension instead of a second copy of every row header.
		// Growing out ahead of the pull keeps the spare big enough for a
		// full batch, so the copy fallback stays the exception (operators
		// may overshoot `want` by one fanout run).
		if cap(out)-len(out) < want {
			out = slices.Grow(out, 2*want)
		}
		b.Rows = out[len(out):len(out):cap(out)]
		if err := nextBatch(ctx, op, &b); err != nil {
			op.Close()
			return nil, err
		}
		if b.Len() == 0 {
			break
		}
		if cap(out) > len(out) && len(b.Rows) <= cap(out)-len(out) && &out[:len(out)+1][len(out)] == &b.Rows[0] {
			out = out[:len(out)+len(b.Rows)]
		} else {
			out = append(out, b.Rows...)
		}
		if observe != nil {
			observe(ctx.Calls())
		}
	}
	if observe != nil {
		observe(ctx.Calls())
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// resultCapHint sizes the result slice: the root's capHint, and at least one
// batch.
func resultCapHint(op Operator, batchSize int) int {
	return max(capHint(op), batchSize)
}

// capHint sizes a buffer for every row op will deliver from the plan's
// cardinality bounds: the node's final call upper bound also caps the rows
// it can deliver. Bounds can be loose (an aggregate's is its input count),
// so a node that carries a plan-time estimate is sized at twice the estimate
// when that is smaller, and the hint is clamped to a modest ceiling — a
// wrong hint costs one growth cycle or some slack capacity, not correctness.
func capHint(op Operator) int {
	const maxHint = 1 << 17
	hint := finalBoundsOf(op).UB
	if est := op.EstimatedCard(); est >= 0 && est < hint/2 {
		hint = 2 * est
	}
	return int(min(hint, maxHint))
}

// drainAll opens a blocking child and drains it — counted GetNext calls,
// chunked on the fast path — into buf[:0]. An empty buf is sized once from
// the child's plan-time bound and estimate instead of growing by append.
func drainAll(ctx *Ctx, child Operator, buf []schema.Row) ([]schema.Row, error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]schema.Row, 0, capHint(child))
	}
	err := drain(ctx, child, func(rows []schema.Row) { buf = append(buf, rows...) })
	return buf, err
}

// drain opens a blocking child and hands sink every row it produces. Both
// engines fully consume the child inside the parent's Open (EOF probe
// included), so chunked pulls here can't desynchronize any quiesce-point
// snapshot; each sunk batch is itself such a point (the child subtree is
// quiescent and sinking counts nothing), reported to the run's observer.
func drain(ctx *Ctx, child Operator, sink func(rows []schema.Row)) error {
	if err := child.Open(ctx); err != nil {
		return err
	}
	if ctx.fastPath() {
		var in Batch
		for {
			if err := nextBatch(ctx, child, &in); err != nil {
				return err
			}
			if in.Len() == 0 {
				return nil
			}
			sink(in.Rows)
			if ctx.observe != nil {
				ctx.observe(ctx.Calls())
			}
		}
	}
	var one [1]schema.Row
	for {
		row, ok, err := child.Next(ctx)
		if err != nil || !ok {
			return err
		}
		one[0] = row
		sink(one[:])
	}
}

// finalBoundsOf computes the root's final call bounds bottom-up (the exec
// half of what core.ComputeBounds does with runtime refinement).
func finalBoundsOf(op Operator) CardBounds {
	ch := op.Children()
	if len(ch) == 0 {
		return op.FinalBounds(nil)
	}
	cb := make([]CardBounds, len(ch))
	for i, c := range ch {
		cb[i] = finalBoundsOf(c)
	}
	return op.FinalBounds(cb)
}

// NativeBatch reports whether every operator in the tree has a native
// vectorized path. Trees containing Top, MergeJoin, or NLJoin still run
// correctly under RunBatch — those operators batch their output while
// pulling rows — but their subtree pulls stay row-grained; the planner and
// EXPLAIN surfaces use this to report the physical execution mode.
func NativeBatch(op Operator) bool {
	native := true
	Walk(op, func(o Operator) {
		switch o.(type) {
		case *Top, *MergeJoin, *NLJoin:
			native = false
		}
	})
	return native
}
