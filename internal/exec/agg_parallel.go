package exec

import (
	"fmt"
	"sort"
	"sync"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// ParallelHashAgg is parallel pre-aggregation with merge: W workers each
// drain one input partition into a private group table (HashAgg's fold, no
// shared state), then the partial states are merged per group in fixed
// worker order (expr.AggState.Merge) and the merged groups stream out in
// sorted key order, exactly like HashAgg.
//
// Progress accounting: fold work is counted where it happens — on the
// partition subtrees, whose nodes tick concurrently on the worker
// goroutines throughout the blocking fold, so an async sampler watching the
// ledger sees the agg pipeline advance mid-run instead of the
// all-at-once jump a serial blocked drain produces. The agg node's own
// counted calls are its emitted merged groups, credited by the reader (the
// node's sole writer — it needs no sub-slots).
//
// The merge is exact for every supported aggregate (COUNT/SUM/AVG/MIN/MAX);
// SUM/AVG stay in int64 arithmetic while every partial did. Merging in
// worker-index order makes float accumulation deterministic for a fixed
// partitioning; the lockstep variant additionally folds the partitions
// round-robin on the reader's goroutine for byte-deterministic runs.
type ParallelHashAgg struct {
	base
	parts      []Operator
	GroupBy    []expr.Expr
	Aggs       []expr.Agg
	groupNames []string
	lockstep   bool

	tables   []map[uint64][]*aggGroup // per-worker fold tables
	out      []*aggGroup
	pos      int
	arena    rowArena // chunked backing storage for emitted group rows
	errMu    sync.Mutex
	firstErr error
}

// NewParallelHashAgg builds a parallel hash aggregation over same-schema
// input partitions (at least one). Group arity rules match NewHashAgg.
func NewParallelHashAgg(parts []Operator, groupBy []expr.Expr, groupNames []string, groupTypes []sqlval.Kind, aggs []expr.Agg) *ParallelHashAgg {
	if len(parts) == 0 {
		panic("parallelhashagg: needs at least one partition")
	}
	if len(groupBy) == 0 {
		panic("parallelhashagg: scalar aggregation belongs to StreamAgg")
	}
	if len(groupBy) != len(groupNames) || len(groupBy) != len(groupTypes) {
		panic("parallelhashagg: group arity mismatch")
	}
	a := &ParallelHashAgg{
		parts:      parts,
		GroupBy:    groupBy,
		Aggs:       aggs,
		groupNames: groupNames,
	}
	a.init(aggOutputSchema(groupNames, groupTypes, aggs))
	return a
}

// NewParallelHashAggLockstep is NewParallelHashAgg with deterministic
// reader-driven folding.
func NewParallelHashAggLockstep(parts []Operator, groupBy []expr.Expr, groupNames []string, groupTypes []sqlval.Kind, aggs []expr.Agg) *ParallelHashAgg {
	a := NewParallelHashAgg(parts, groupBy, groupNames, groupTypes, aggs)
	a.lockstep = true
	return a
}

// fail records a worker's error; first non-cancellation error wins.
func (a *ParallelHashAgg) fail(err error) {
	a.errMu.Lock()
	if a.firstErr == nil || (a.firstErr == ErrCanceled && err != ErrCanceled) {
		a.firstErr = err
	}
	a.errMu.Unlock()
}

// Open implements Operator: folds all partitions (concurrently or in
// lockstep), merges the partial tables, and sorts the merged groups.
func (a *ParallelHashAgg) Open(ctx *Ctx) error {
	a.reopen()
	a.out, a.pos = nil, 0
	a.tables = make([]map[uint64][]*aggGroup, len(a.parts))
	if a.lockstep {
		if err := a.foldLockstep(ctx); err != nil {
			return err
		}
	} else {
		a.firstErr = nil
		var wg sync.WaitGroup
		for w := range a.parts {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := a.foldWorker(ctx, w); err != nil {
					a.fail(err)
				}
			}(w)
		}
		wg.Wait()
		a.errMu.Lock()
		err := a.firstErr
		a.errMu.Unlock()
		if err != nil {
			return err
		}
	}
	a.merge()
	return nil
}

// foldWorker opens and drains partition w into its private group table.
// Only index w of a.tables is touched, so workers share nothing.
func (a *ParallelHashAgg) foldWorker(ctx *Ctx, w int) error {
	part := a.parts[w]
	if err := part.Open(ctx); err != nil {
		return err
	}
	table := make(map[uint64][]*aggGroup)
	key := make([]sqlval.Value, len(a.GroupBy))
	var in Batch
	for {
		if err := nextBatch(ctx, part, &in); err != nil {
			return err
		}
		if in.Len() == 0 {
			break
		}
		for _, row := range in.Rows {
			foldInto(table, key, a.GroupBy, a.Aggs, row)
		}
	}
	a.tables[w] = table
	return nil
}

// foldLockstep drains the partitions round-robin on the caller's goroutine,
// one chunk at a time, into the same per-partition tables a concurrent fold
// fills.
func (a *ParallelHashAgg) foldLockstep(ctx *Ctx) error {
	for w := range a.tables {
		a.tables[w] = make(map[uint64][]*aggGroup)
	}
	for _, p := range a.parts {
		if err := p.Open(ctx); err != nil {
			return err
		}
	}
	done := make([]bool, len(a.parts))
	remaining := len(a.parts)
	key := make([]sqlval.Value, len(a.GroupBy))
	var in Batch
	for remaining > 0 {
		for w := range a.parts {
			if done[w] {
				continue
			}
			if err := nextBatch(ctx, a.parts[w], &in); err != nil {
				return err
			}
			if in.Len() == 0 {
				done[w] = true
				remaining--
				continue
			}
			for _, row := range in.Rows {
				foldInto(a.tables[w], key, a.GroupBy, a.Aggs, row)
			}
		}
	}
	return nil
}

// merge combines the per-worker tables into worker 0's (adopting its groups
// outright) in ascending worker order — each group's partial states are
// merged in the same order every run, keeping float accumulation
// deterministic — then sorts the merged groups by key for HashAgg's
// deterministic emission order.
func (a *ParallelHashAgg) merge() {
	merged := a.tables[0]
	if merged == nil {
		merged = make(map[uint64][]*aggGroup)
	}
	for _, t := range a.tables[1:] {
	buckets:
		for h, bucket := range t {
			for _, g := range bucket {
				for _, m := range merged[h] {
					if compareKeyVals(m.key, g.key) == 0 {
						for i := range m.states {
							m.states[i].Merge(g.states[i])
						}
						continue buckets
					}
				}
				merged[h] = append(merged[h], g)
			}
		}
	}
	a.out = make([]*aggGroup, 0, len(merged))
	for _, bucket := range merged {
		a.out = append(a.out, bucket...)
	}
	sort.Slice(a.out, func(i, j int) bool {
		return compareKeyVals(a.out[i].key, a.out[j].key) < 0
	})
	a.tables = nil
}

// Next implements Operator: streams the merged groups, one counted call per
// group row (the reader is the node's only ledger writer).
func (a *ParallelHashAgg) Next(ctx *Ctx) (schema.Row, bool, error) {
	if a.pos >= len(a.out) {
		return a.eof()
	}
	g := a.out[a.pos]
	a.pos++
	row := make(schema.Row, 0, len(g.key)+len(g.states))
	row = append(row, g.key...)
	for _, s := range g.states {
		row = append(row, s.Result())
	}
	return a.emit(ctx, row)
}

// NextBatch implements BatchOperator: streams the sorted merged groups
// chunk-at-a-time, rows carved from the arena.
func (a *ParallelHashAgg) NextBatch(ctx *Ctx, b *Batch) error {
	if !ctx.fastPath() {
		return FillFromNext(ctx, a, b, ctx.batchSize())
	}
	b.Reset()
	if a.pos >= len(a.out) {
		a.markDone()
		return nil
	}
	n := len(a.out) - a.pos
	if want := ctx.batchSize(); n > want {
		n = want
	}
	for i := 0; i < n; i++ {
		g := a.out[a.pos+i]
		row := a.arena.row(len(g.key) + len(g.states))
		copy(row, g.key)
		for j, st := range g.states {
			row[len(g.key)+j] = st.Result()
		}
		b.Append(row)
	}
	a.pos += n
	return a.creditRows(ctx, n)
}

// Close implements Operator.
func (a *ParallelHashAgg) Close() error {
	a.tables, a.out = nil, nil
	var first error
	for _, p := range a.parts {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Children implements Operator.
func (a *ParallelHashAgg) Children() []Operator { return a.parts }

// Name implements Operator.
func (a *ParallelHashAgg) Name() string {
	return fmt.Sprintf("ParallelHashAgg(w=%d, groups=%d, aggs=%d)", len(a.parts), len(a.GroupBy), len(a.Aggs))
}

// FinalBounds implements Operator: the partitions jointly form the input, so
// HashAgg's bounds apply to their sum — between one group (if any input row
// exists) and one group per input row.
func (a *ParallelHashAgg) FinalBounds(ch []CardBounds) CardBounds {
	var in CardBounds
	for _, c := range ch {
		in.LB = SatAdd(in.LB, c.LB)
		in.UB = SatAdd(in.UB, c.UB)
	}
	lb := in.LB
	if lb > 1 {
		lb = 1
	}
	return CardBounds{LB: lb, UB: in.UB}
}

// StreamChildren implements Operator.
func (a *ParallelHashAgg) StreamChildren() []int { return nil }

// BlockingChildren implements Operator: every partition is fully consumed
// before the first group is emitted.
func (a *ParallelHashAgg) BlockingChildren() []int {
	out := make([]int, len(a.parts))
	for i := range out {
		out[i] = i
	}
	return out
}
