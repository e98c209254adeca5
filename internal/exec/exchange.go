package exec

import (
	"fmt"

	"sqlprogress/internal/schema"
)

// Exchange runs N same-schema children on N workers and merges their output
// into one stream — the classic exchange (gather) operator that unlocks
// intra-query parallelism under the iterator model. It is the proof of the
// progress ledger's decoupling: each worker writes only its own subtree's
// ledger slots (the single-writer-per-slot discipline the snapshot protocol
// relies on), the reader writes only the exchange's own slot, and samplers
// on other goroutines read the flat ledger without caring which goroutine
// produced which counter. Batches travel over the shared gather transport;
// their size follows Ctx.BatchSize, amortizing channel synchronization
// without letting per-partition progress lag far behind the counters.
//
// Row order across partitions is nondeterministic (unless the plan runs in
// lockstep); everything else about the run — the rows produced, every node's
// final counts — is not.
type Exchange struct {
	base
	parts []Operator
	g     gather
}

// NewExchange builds an exchange over the given partitions (at least one;
// all must produce the same schema).
func NewExchange(parts ...Operator) *Exchange {
	if len(parts) == 0 {
		panic("exec: exchange needs at least one partition")
	}
	e := &Exchange{parts: parts}
	e.init(parts[0].Schema())
	return e
}

// NewParallelStoreScan builds an Exchange over `workers` disjoint partition
// scans of a store — the static-partitioned parallel scan. Each worker
// counts into its own partition's ledger slots; the reader's merge is the
// only point of contact between them. For dynamic (morsel-driven) work
// distribution under a single plan node, see NewParallelScan. Partition
// windows
// are store-aligned — page-aligned for paged stores, so workers never
// contend for a page and each worker's physical reads (and any weighted
// read units) are credited to its own partition's ledger slot.
func NewParallelStoreScan(st schema.Store, workers int) *Exchange {
	parts := make([]Operator, workers)
	for i := range parts {
		parts[i] = NewStoreScanPartition(st, i, workers)
	}
	return NewExchange(parts...)
}

func (e *Exchange) transport() *gather { return &e.g }

// Open implements Operator: it starts one worker per partition. Workers
// open and drain their partition themselves, so every counted call of a
// subtree happens on that subtree's worker.
func (e *Exchange) Open(ctx *Ctx) error {
	e.reopen()
	return e.g.start(len(e.parts), func(w int) (workerStep, error) {
		return partitionStep(ctx, e.parts[w])
	})
}

// partitionStep opens a partition subtree and returns the step that pulls
// its next batch, finishing at the empty one. nextBatch keeps each regime's
// accounting: a vectorized run takes the partition's native bulk-credit
// path, a hooked or row run drives exact row-at-a-time pulls.
func partitionStep(ctx *Ctx, part Operator) (workerStep, error) {
	if err := part.Open(ctx); err != nil {
		return nil, err
	}
	return func(out *Batch) (turn, error) {
		if err := nextBatch(ctx, part, out); err != nil || out.Len() > 0 {
			return turnOver, err
		}
		return turnLast, nil
	}, nil
}

// Next implements Operator: it merges worker batches into one counted
// stream. Only the reader goroutine touches the exchange's own ledger slot.
func (e *Exchange) Next(ctx *Ctx) (schema.Row, bool, error) {
	row, ok, err := e.g.nextRow()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return e.eof()
	}
	return e.emit(ctx, row)
}

// NextBatch implements BatchOperator: the reader takes one worker window per
// pull and appends its row headers into the caller's batch.
func (e *Exchange) NextBatch(ctx *Ctx, b *Batch) error {
	if !ctx.fastPath() {
		return FillFromNext(ctx, e, b, ctx.batchSize())
	}
	b.Reset()
	if err := e.g.nextRows(b); err != nil {
		return err
	}
	if b.Len() == 0 {
		e.markDone()
		return nil
	}
	return e.creditRows(ctx, b.Len())
}

// Close implements Operator: it stops the workers, waits for them to exit,
// and closes the partitions (quiesced by then, so the reader goroutine may
// touch them).
func (e *Exchange) Close() error {
	e.g.stop()
	return closeAll(e.parts...)
}

// closeAll closes every operator, returning the first error.
func closeAll(ops ...Operator) error {
	var first error
	for _, op := range ops {
		if err := op.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Children implements Operator.
func (e *Exchange) Children() []Operator { return e.parts }

// Name implements Operator.
func (e *Exchange) Name() string { return fmt.Sprintf("Exchange(%d)", len(e.parts)) }

// FinalBounds implements Operator: the exchange forwards every partition
// row exactly once.
func (e *Exchange) FinalBounds(children []CardBounds) CardBounds {
	var b CardBounds
	for _, c := range children {
		b.LB = SatAdd(b.LB, c.LB)
		b.UB = SatAdd(b.UB, c.UB)
	}
	return b
}

// StreamChildren implements Operator: every partition executes in the
// exchange's pipeline (concurrently, rather than interleaved).
func (e *Exchange) StreamChildren() []int {
	out := make([]int, len(e.parts))
	for i := range out {
		out[i] = i
	}
	return out
}

// BlockingChildren implements Operator.
func (e *Exchange) BlockingChildren() []int { return nil }
