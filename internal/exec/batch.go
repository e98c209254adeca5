package exec

import (
	"slices"
	"time"

	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// This file holds the executor's one pull protocol. An operator produces
// output through one method, NextBatch(ctx, b, want): it fills b with its
// next rows, and an empty batch is end of stream. The paper's GetNext is a
// pull with want == 1 — exactly one row handed to the parent, or none at EOF.
// The design constraint is the paper's: progress is accounted in GetNext
// calls, and every count a run ends with must be the same whatever the pull
// size. So there are two pull sizes through one body, not two engines, and
// the run derives which from its hooks — no caller picks:
//
//   - Exact (every pull is want == 1): any run with Ctx.Inject or
//     Ctx.OnGetNext set, because only something that watches every call
//     needs every call's instant. Each counted call is credited on its own,
//     in the iterator model's order, so hooks see every Curr and a fault or
//     a cancellation lands at exactly its scheduled call.
//
//   - Bulk (no hook): operators move chunks of up to Ctx.BatchSize rows and
//     credit their ledger slots in bulk — one interface dispatch and a
//     handful of adds per chunk instead of per row. Between two credits a
//     child may be a chunk ahead of its parent, so the states a sampler
//     reads at a credit are not the exact regime's; they are held to the
//     paper's bounds instead: coretest's credit-read check records a ledger
//     read after every credit of a bulk run and holds each to the bounds,
//     and the two regimes must end with the same rows, calls and per-node
//     ledger.
//
// Who asks for how much: a streaming child is pulled with its parent's want,
// and a blocking child is drained at ctx.batchSize(). Top, MergeJoin and
// NLJoin pull their children one row at a time in both regimes, batching
// only their output: a LIMIT must not read ahead of what it hands out, a
// merge advances its two inputs at data-dependent rates, and a nested loop
// rescans its counted inner per outer row. A pull may return more than want
// rows only to finish a child chunk it already holds; at want == 1 a join
// keeps the rest of a fan-out uncredited and hands it out on its next pulls.

// DefaultBatchSize is the row-chunk size bulk pulls move between operators
// when Ctx.BatchSize is zero. Large enough to amortize interface dispatch and
// ledger credits to noise, small enough that per-node progress never
// lags the counters by more than a chunk.
const DefaultBatchSize = 1024

// Batch is a chunk of rows moved between operators. The Rows slice is owned
// by the producing operator and reused across NextBatch calls: consumers
// must copy out any row pointers they retain past the next pull (the rows
// themselves remain valid indefinitely — they are fresh allocations or
// references into immutable base relations).
type Batch struct {
	Rows []schema.Row
}

// Reset empties the batch, keeping its backing capacity.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// reserve sizes an unused batch once for pulls of up to want rows from
// child: no more than the child can deliver (capHint), so a pull from a
// 25-row table reserves 25 headers, not want, and the buffer never doubles
// its way up from zero.
func (b *Batch) reserve(child Operator, want int) {
	if cap(b.Rows) == 0 {
		b.Rows = make([]schema.Row, 0, min(want, capHint(child)))
	}
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Append adds one row.
func (b *Batch) Append(r schema.Row) { b.Rows = append(b.Rows, r) }

// batchSize is the pull size of this run: 1 in the exact regime — a hook
// installed — and otherwise Ctx.BatchSize, or DefaultBatchSize when it is
// zero.
func (c *Ctx) batchSize() int {
	if c.Inject != nil || c.OnGetNext != nil {
		return 1
	}
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// credit counts one pull's work on ledger slot s: undelivered counted calls
// (weighted read units, rows a pushed predicate rejected) and delivered rows
// handed to the parent. It is the only place a GetNext is counted. With a
// hook installed it steps one call at a time — undelivered calls first, the
// delivered ones last, the slot and Curr moving together — so Inject and
// OnGetNext see every exact count; with none it adds in bulk. Cancellation is
// checked before each call (before the whole credit in bulk): a call counted
// before the cancel stays counted, none after it is. Once the credit is
// counted it checks the sampling trigger's due rule (SampleEvery's call
// count or SampleInterval's clock).
func (c *Ctx) credit(s *ledger.Snapshot, undelivered int64, delivered int) error {
	n := undelivered + int64(delivered)
	if n == 0 {
		return nil
	}
	var curr int64
	if c.Inject == nil && c.OnGetNext == nil {
		if c.canceled.Load() {
			return ErrCanceled
		}
		s.Returned += n
		s.Delivered += int64(delivered)
		curr = c.calls.Add(n)
	} else {
		for i := int64(0); i < n; i++ {
			if c.canceled.Load() {
				return ErrCanceled
			}
			s.Returned++
			if i >= undelivered {
				s.Delivered++
			}
			curr = c.calls.Add(1)
			if c.Inject != nil {
				if err := c.Inject(curr); err != nil {
					return err
				}
			}
			if c.OnGetNext != nil {
				c.OnGetNext(curr)
			}
		}
	}
	if c.onDue != nil {
		if c.every > 0 {
			if curr >= c.due {
				c.due = curr - curr%c.every + c.every
				c.onDue(curr)
			}
		} else if now := time.Now(); !now.Before(c.at) {
			c.at = now.Add(c.interval)
			c.onDue(curr)
		}
	}
	return nil
}

// creditPieces is credit in pieces of at most piece calls, undelivered ones
// first: an operator that counts more than one pull's worth of work in one
// step (a selective scan's rejected rows, a fan-out's output) moves Curr by
// no more than a pull at a time, so the sampling trigger sees it move.
func (c *Ctx) creditPieces(s *ledger.Snapshot, undelivered int64, delivered, piece int) error {
	for undelivered > 0 {
		k := min(undelivered, int64(piece))
		if err := c.credit(s, k, 0); err != nil {
			return err
		}
		undelivered -= k
	}
	for delivered > 0 {
		k := min(delivered, piece)
		if err := c.credit(s, 0, k); err != nil {
			return err
		}
		delivered -= k
	}
	return nil
}

// pullOne is one GetNext on op: a want == 1 pull into scratch, returning its
// row, or ok = false at end of stream.
func pullOne(ctx *Ctx, op Operator, scratch *Batch) (schema.Row, bool, error) {
	if err := op.NextBatch(ctx, scratch, 1); err != nil || scratch.Len() == 0 {
		return nil, false, err
	}
	return scratch.Rows[0], true, nil
}

// rowWise is the NextBatch body of an operator whose output is row-grained
// (Top, MergeJoin, NLJoin): it fills b with up to want rows of next, each
// credited as one GetNext before the next is asked for, and marks the node
// done when next reports the end of its stream.
func (n *base) rowWise(ctx *Ctx, b *Batch, want int, next func(*Ctx) (schema.Row, bool, error)) error {
	b.Reset()
	for b.Len() < want {
		row, ok, err := next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			n.markDone()
			return nil
		}
		if err := ctx.credit(n.slot, 0, 1); err != nil {
			return err
		}
		b.Append(row)
	}
	return nil
}

// stream is the NextBatch loop of every operator that maps its one streaming
// child chunk by chunk — Filter, Project, Distinct and the two serial joins —
// with step turning input rows into output appended to b. It pulls the child
// with the caller's want and runs step over each chunk in strides of want
// input rows, crediting each stride's output in pieces of at most want rows,
// so a skewed fan-out moves the ledger a pull at a time and a cancel stops it
// within one stride. It returns only with the whole chunk processed, and
// marks the node done on the pull that finds the child's EOF.
//
// At want == 1, where one input row can yield several output rows (a join's
// fan-out), the rows past the first wait uncredited in fan and are handed
// out one per pull before the child is pulled again.
type stream struct {
	in     Batch // reused child-chunk scratch
	fan    []schema.Row
	fanPos int
}

// reset readies the loop for a fresh Open, keeping its buffers.
func (s *stream) reset() { s.fan, s.fanPos = s.fan[:0], 0 }

// pull is one NextBatch of node n over child through step.
func (s *stream) pull(ctx *Ctx, n *base, child Operator, b *Batch, want int, step func(in []schema.Row, out *Batch) int) error {
	b.Reset()
	if s.fanPos < len(s.fan) {
		b.Append(s.fan[s.fanPos])
		s.fanPos++
		return ctx.credit(n.slot, 0, 1)
	}
	s.in.reserve(child, want)
	for {
		if err := child.NextBatch(ctx, &s.in, want); err != nil {
			// Not EOF: an aborted run must not mark the node done, or the
			// bounds pass would wrongly pin it at its current count.
			return err
		}
		k := s.in.Len()
		if k == 0 {
			n.markDone()
			return nil
		}
		for lo := 0; lo < k; lo += want {
			emitted := step(s.in.Rows[lo:min(lo+want, k)], b)
			if want == 1 && b.Len() > 1 {
				s.fan, s.fanPos = append(s.fan[:0], b.Rows[1:]...), 0
				b.Rows, emitted = b.Rows[:1], 1
			}
			if err := ctx.creditPieces(n.slot, 0, emitted, want); err != nil {
				return err
			}
		}
		// A short child chunk often precedes EOF: hand its output to the
		// parent now rather than probe the child first.
		if b.Len() >= want || (k < want && b.Len() > 0) {
			return nil
		}
	}
}

// rowArena carves fresh fixed-width rows out of chunked backing slabs, so
// operators that build output rows (projections, join concatenations) pay
// one allocation per ~chunk of rows instead of one per row. Carved rows are
// full-capacity sub-slices: they never alias their neighbours and remain
// valid indefinitely (the arena only ever abandons exhausted chunks, it
// never reuses them). Slabs start small and double, so an operator that
// builds one row pays for a few, not for a full chunk.
type rowArena struct {
	buf      []sqlval.Value
	slabRows int // rows' worth of values the last slab held
}

// The first slab holds arenaFirstRows rows' worth of values; each later one
// twice its predecessor's, up to arenaChunkRows.
const (
	arenaFirstRows = 8
	arenaChunkRows = 256
)

// row returns a zeroed row of width w.
func (a *rowArena) row(w int) schema.Row {
	if w == 0 {
		return schema.Row{}
	}
	if len(a.buf) < w {
		a.slabRows = min(max(2*a.slabRows, arenaFirstRows), arenaChunkRows)
		a.buf = make([]sqlval.Value, a.slabRows*w)
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

// RunBatch drains an operator tree to completion, returning all produced
// root rows. It is the one run loop: it binds the plan to a progress ledger
// first, so samplers attached to the tree always observe ledger-backed
// counters, opens it, pulls the root at the run's pull size until EOF, and
// closes it. Its pulls are bulk, or one row each when a hook is installed;
// either way it produces the same result multiset and the same final ledger
// counts.
func RunBatch(ctx *Ctx, op Operator) ([]schema.Row, error) {
	if ctx == nil {
		ctx = NewCtx()
	}
	EnsureLedger(op)
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	want, bound := ctx.batchSize(), PlanRowBounds(op).UB
	out := make([]schema.Row, 0, sizeHint(op, bound))
	var b Batch
	for full := false; ; full = b.Len() >= want {
		// Hand the root operator out's spare capacity as its output buffer:
		// when the batch fits without reallocating, collecting it is a
		// length extension instead of a second copy of every row header.
		// out holds the hint, which is every row the plan can deliver unless
		// it came from a low estimate; only past it, and only after a full
		// batch, does out grow ahead of the pull (operators may overshoot
		// `want` by one fanout run). A batch that outgrows the spare is
		// copied instead.
		if cap(out)-len(out) < want && full && int64(cap(out)) < bound {
			out = slices.Grow(out, 2*want)
		}
		b.Rows = out[len(out):len(out):cap(out)]
		if err := op.NextBatch(ctx, &b, want); err != nil {
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
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// capHint sizes a buffer for every row op will deliver from the plan's bound
// on those rows (PlanRowBounds). Bounds can be loose (an aggregate's is its
// input count), so a node that carries a plan-time estimate is sized at twice
// the estimate when that is smaller, and the hint is clamped to a modest
// ceiling — a wrong hint costs one growth cycle or some slack capacity, not
// correctness.
func capHint(op Operator) int { return sizeHint(op, PlanRowBounds(op).UB) }

// sizeHint is capHint for op given its row bound.
func sizeHint(op Operator, bound int64) int {
	const maxHint = 1 << 17
	hint := bound
	if est := op.EstimatedCard(); est >= 0 && est < hint/2 {
		hint = 2 * est
	}
	return int(min(hint, maxHint))
}

// drainAll opens a blocking child and drains it into buf[:0]. An empty buf
// is sized once from the child's plan-time bound and estimate instead of
// growing by append.
func drainAll(ctx *Ctx, child Operator, buf []schema.Row) ([]schema.Row, error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]schema.Row, 0, capHint(child))
	}
	err := drain(ctx, child, func(rows []schema.Row) { buf = append(buf, rows...) })
	return buf, err
}

// drain opens a blocking child and hands sink every row it produces, pulled
// at the run's pull size. The child is consumed whole inside the parent's
// Open, EOF probe included.
func drain(ctx *Ctx, child Operator, sink func(rows []schema.Row)) error {
	if err := child.Open(ctx); err != nil {
		return err
	}
	var in Batch
	want := ctx.batchSize()
	in.reserve(child, want)
	for {
		if err := child.NextBatch(ctx, &in, want); err != nil || in.Len() == 0 {
			return err
		}
		sink(in.Rows)
	}
}

// PlanRowBounds bounds the rows op delivers to its parent from the plan
// alone, bottom-up: a DeliveredBounder's DeliveredBounds, else the node's
// FinalBounds over its children's row bounds — rows, never a paged scan's
// read units. It is the static half of what core.BoundsEvaluator refines with
// runtime counters, and what the SQL compiler compares to pick a hash join's
// build side.
func PlanRowBounds(op Operator) CardBounds {
	if d, ok := op.(DeliveredBounder); ok {
		return d.DeliveredBounds()
	}
	ch := op.Children()
	cb := make([]CardBounds, len(ch))
	for i, c := range ch {
		cb[i] = PlanRowBounds(c)
	}
	return op.FinalBounds(cb)
}

// NativeBatch reports whether every operator in the tree moves chunks on
// bulk pulls. Trees containing Top, MergeJoin, or NLJoin still run under
// RunBatch — those operators batch their output — but they pull their
// children one row at a time; the planner and EXPLAIN surfaces use this to
// report the physical execution mode.
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
