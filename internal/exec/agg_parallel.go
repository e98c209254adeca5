package exec

import (
	"fmt"

	"sqlprogress/internal/expr"
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
// partitioning, whichever schedule folded it.
type ParallelHashAgg struct {
	base
	parts      []Operator
	GroupBy    []expr.Expr
	Aggs       []expr.Agg
	groupNames []string

	g      gather                   // fold workers: they ship nothing to the reader
	tables []map[uint64][]*aggGroup // per-worker fold tables
	out    sortedGroups
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
	a.init(aggOutputSchema(parts[0].Schema(), groupBy, groupNames, groupTypes, aggs))
	return a
}

func (a *ParallelHashAgg) transport() *gather { return &a.g }

// Open implements Operator: folds all partitions, merges the partial tables,
// and sorts the merged groups.
func (a *ParallelHashAgg) Open(ctx *Ctx) error {
	a.reopen()
	a.out.load(nil)
	a.tables = make([]map[uint64][]*aggGroup, len(a.parts))
	if err := a.g.start(len(a.parts), func(w int) (workerStep, error) { return a.foldStep(ctx, w) }); err != nil {
		return err
	}
	// The fold steps emit no rows, so the first receive is the end of the
	// stream: every worker has finished (or one failed).
	_, err := a.g.recv()
	a.g.stop()
	if err != nil {
		return err
	}
	a.merge()
	return nil
}

// foldStep opens partition w and returns the step that folds its next chunk
// into the worker's private group table. Only index w of a.tables is
// touched, so workers share nothing.
func (a *ParallelHashAgg) foldStep(ctx *Ctx, w int) (workerStep, error) {
	part := a.parts[w]
	if err := part.Open(ctx); err != nil {
		return nil, err
	}
	table := make(map[uint64][]*aggGroup)
	a.tables[w] = table
	key := make([]sqlval.Value, len(a.GroupBy))
	var in Batch
	return func(*Batch) (turn, error) {
		if err := pullChunk(ctx, part, &in); err != nil || in.Len() == 0 {
			return turnLast, err
		}
		for _, row := range in.Rows {
			foldInto(table, key, a.GroupBy, a.Aggs, row)
		}
		return turnOver, nil
	}, nil
}

// merge combines the per-worker tables into worker 0's (adopting its groups
// outright) in ascending worker order — each group's partial states are
// merged in the same order every run, keeping float accumulation
// deterministic — then loads the merged groups, sorted by key as HashAgg's
// are.
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
	a.out.load(merged)
	a.tables = nil
}

// NextBatch implements Operator: streams up to want of the sorted merged
// groups, one counted call per group row (the reader is the node's only
// ledger writer).
func (a *ParallelHashAgg) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return a.out.next(ctx, &a.base, b, want)
}

// Close implements Operator.
func (a *ParallelHashAgg) Close() error {
	a.g.stop()
	a.tables = nil
	a.out.load(nil)
	return closeAll(a.parts...)
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
