package exec

import (
	"fmt"
	"slices"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// aggOutputSchema builds the schema for an aggregation over rows of in:
// group columns first (a plain column keeps its table, see outputColumn),
// then one column per aggregate.
func aggOutputSchema(in *schema.Schema, groupBy []expr.Expr, groupNames []string, groupTypes []sqlval.Kind, aggs []expr.Agg) *schema.Schema {
	cols := make([]schema.Column, 0, len(groupNames)+len(aggs))
	for i, n := range groupNames {
		cols = append(cols, outputColumn(in, groupBy[i], n, groupTypes[i]))
	}
	for _, a := range aggs {
		cols = append(cols, schema.Column{Name: a.Name, Type: a.OutputType()})
	}
	return schema.New(cols...)
}

// HashAgg is a blocking hash aggregation (gamma): Open drains the child into
// per-group accumulators; NextBatch streams one row per group in sorted
// group-key order (deterministic output for testing and benchmarking).
type HashAgg struct {
	base
	child      Operator
	GroupBy    []expr.Expr
	Aggs       []expr.Agg
	groupNames []string

	groups map[uint64][]*aggGroup
	out    sortedGroups
}

type aggGroup struct {
	key    []sqlval.Value
	states []*expr.AggState
}

// NewHashAgg builds a hash aggregation. groupNames and groupTypes describe
// the group-by output columns and must match GroupBy's arity; at least one
// group column is required (use StreamAgg for scalar aggregates).
func NewHashAgg(child Operator, groupBy []expr.Expr, groupNames []string, groupTypes []sqlval.Kind, aggs []expr.Agg) *HashAgg {
	if len(groupBy) == 0 {
		panic("hashagg: scalar aggregation belongs to StreamAgg")
	}
	if len(groupBy) != len(groupNames) || len(groupBy) != len(groupTypes) {
		panic("hashagg: group arity mismatch")
	}
	a := &HashAgg{
		child:      child,
		GroupBy:    groupBy,
		Aggs:       aggs,
		groupNames: groupNames,
	}
	a.init(aggOutputSchema(child.Schema(), groupBy, groupNames, groupTypes, aggs))
	return a
}

// Open implements Operator.
func (a *HashAgg) Open(ctx *Ctx) error {
	a.reopen()
	a.groups = make(map[uint64][]*aggGroup)
	a.out.load(nil)
	key := make([]sqlval.Value, len(a.GroupBy))
	err := drain(ctx, a.child, func(rows []schema.Row) {
		for _, row := range rows {
			foldInto(a.groups, key, a.GroupBy, a.Aggs, row)
		}
	})
	if err != nil {
		return err
	}
	a.out.load(a.groups)
	return nil
}

// foldInto folds one row into a group table — HashAgg's accumulation step,
// shared with ParallelHashAgg's per-worker pre-aggregation (each worker owns
// a private table, so the function needs no synchronization). key is the
// caller's scratch of len(groupBy) values, overwritten per row and copied
// only when the row opens a new group.
func foldInto(groups map[uint64][]*aggGroup, key []sqlval.Value, groupBy []expr.Expr, aggs []expr.Agg, row schema.Row) {
	var h uint64 = 1469598103934665603
	for i, g := range groupBy {
		key[i] = g.Eval(row)
		h = h*1099511628211 ^ sqlval.Hash(key[i])
	}
	var grp *aggGroup
	for _, g := range groups[h] {
		if compareKeyVals(g.key, key) == 0 {
			grp = g
			break
		}
	}
	if grp == nil {
		grp = &aggGroup{key: slices.Clone(key), states: make([]*expr.AggState, len(aggs))}
		for i, ag := range aggs {
			grp.states[i] = expr.NewAggState(ag)
		}
		groups[h] = append(groups[h], grp)
	}
	for _, s := range grp.states {
		s.Add(row)
	}
}

// NextBatch implements Operator: streams up to want of the sorted groups.
func (a *HashAgg) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return a.out.next(ctx, &a.base, b, want)
}

// sortedGroups is the output side of both hash aggregations: the finished
// groups in key order, and how many have been handed out.
type sortedGroups struct {
	groups []*aggGroup
	pos    int
	arena  rowArena // chunked backing storage for emitted group rows
}

// load replaces the groups with those of table, sorted by key for a
// deterministic emission order (a nil table empties them).
func (o *sortedGroups) load(table map[uint64][]*aggGroup) {
	o.groups, o.pos = make([]*aggGroup, 0, len(table)), 0
	for _, bucket := range table {
		o.groups = append(o.groups, bucket...)
	}
	slices.SortFunc(o.groups, func(a, b *aggGroup) int { return compareKeyVals(a.key, b.key) })
}

// next hands out up to want of the groups not yet out, one row each, carved
// from the arena and credited to node n, and marks n done once all are out.
func (o *sortedGroups) next(ctx *Ctx, n *base, b *Batch, want int) error {
	b.Reset()
	if o.pos >= len(o.groups) {
		n.markDone()
		return nil
	}
	for _, g := range o.groups[o.pos:min(o.pos+want, len(o.groups))] {
		row := o.arena.row(len(g.key) + len(g.states))
		copy(row, g.key)
		for j, st := range g.states {
			row[len(g.key)+j] = st.Result()
		}
		b.Append(row)
	}
	o.pos += b.Len()
	return ctx.credit(n.slot, 0, b.Len())
}

// Close implements Operator.
func (a *HashAgg) Close() error {
	a.groups = nil
	a.out.load(nil)
	return a.child.Close()
}

// Children implements Operator.
func (a *HashAgg) Children() []Operator { return []Operator{a.child} }

// Name implements Operator.
func (a *HashAgg) Name() string {
	return fmt.Sprintf("HashAgg(groups=%d, aggs=%d)", len(a.GroupBy), len(a.Aggs))
}

// FinalBounds implements Operator: between one group (if any input) and one
// group per input row.
func (a *HashAgg) FinalBounds(ch []CardBounds) CardBounds {
	lb := ch[0].LB
	if lb > 1 {
		lb = 1
	}
	return CardBounds{LB: lb, UB: ch[0].UB}
}

// StreamChildren implements Operator.
func (a *HashAgg) StreamChildren() []int { return nil }

// BlockingChildren implements Operator.
func (a *HashAgg) BlockingChildren() []int { return []int{0} }

// StreamAgg aggregates an input already grouped (sorted) on the group-by
// keys, emitting each group as it completes; with no group-by keys it is the
// scalar aggregate, emitting exactly one row even for empty input.
type StreamAgg struct {
	base
	child   Operator
	GroupBy []expr.Expr
	Aggs    []expr.Agg

	cur      *aggGroup
	done     bool // child EOF seen, final group flushed; mark done on the next pull
	emitted1 bool // scalar: have we emitted the single row
	in       Batch
}

// NewStreamAgg builds a stream aggregation; groupBy may be empty for scalar
// aggregation. For grouped aggregation the child must be sorted on groupBy.
func NewStreamAgg(child Operator, groupBy []expr.Expr, groupNames []string, groupTypes []sqlval.Kind, aggs []expr.Agg) *StreamAgg {
	if len(groupBy) != len(groupNames) || len(groupBy) != len(groupTypes) {
		panic("streamagg: group arity mismatch")
	}
	s := &StreamAgg{
		child:   child,
		GroupBy: groupBy,
		Aggs:    aggs,
	}
	s.init(aggOutputSchema(child.Schema(), groupBy, groupNames, groupTypes, aggs))
	return s
}

// Open implements Operator.
func (s *StreamAgg) Open(ctx *Ctx) error {
	s.reopen()
	s.cur = nil
	s.done, s.emitted1 = false, false
	return s.child.Open(ctx)
}

func (s *StreamAgg) newGroup(row schema.Row) *aggGroup {
	key := make([]sqlval.Value, len(s.GroupBy))
	for i, g := range s.GroupBy {
		key[i] = g.Eval(row)
	}
	grp := &aggGroup{key: key, states: make([]*expr.AggState, len(s.Aggs))}
	for i, ag := range s.Aggs {
		grp.states[i] = expr.NewAggState(ag)
	}
	return grp
}

func (s *StreamAgg) groupRow(g *aggGroup) schema.Row {
	row := make(schema.Row, 0, len(g.key)+len(g.states))
	row = append(row, g.key...)
	for _, st := range g.states {
		row = append(row, st.Result())
	}
	return row
}

func (g *aggGroup) addRow(row schema.Row) {
	for _, st := range g.states {
		st.Add(row)
	}
}

// NextBatch implements Operator: folds each child chunk whole, emitting
// every group the chunk completes. The trailing partial group stays in cur —
// exactly the state one-row pulls reach after consuming the same child rows
// — and is flushed when child EOF is discovered, with the done flag deferred
// one pull (a want == 1 pull, too, marks done only on the pull after its last
// group).
func (s *StreamAgg) NextBatch(ctx *Ctx, b *Batch, want int) error {
	b.Reset()
	if s.done {
		s.markDone()
		return nil
	}
	s.in.reserve(s.child, want)
	for {
		if err := s.child.NextBatch(ctx, &s.in, want); err != nil {
			return err
		}
		n := s.in.Len()
		if n == 0 {
			// Child EOF: flush the final group, or the scalar aggregate's
			// mandatory single row over empty input.
			s.done = true
			emitted := 0
			if s.cur != nil {
				b.Append(s.groupRow(s.cur))
				s.cur = nil
				emitted = 1
			} else if len(s.GroupBy) == 0 && !s.emitted1 {
				s.emitted1 = true
				b.Append(s.groupRow(s.newGroup(nil)))
				emitted = 1
			}
			if err := ctx.credit(s.slot, 0, emitted); err != nil {
				return err
			}
			if b.Len() == 0 {
				s.markDone()
			}
			return nil
		}
		emitted := 0
		for _, row := range s.in.Rows {
			if s.cur == nil {
				s.cur = s.newGroup(row)
				s.cur.addRow(row)
				s.emitted1 = true
				continue
			}
			if len(s.GroupBy) > 0 {
				key := make([]sqlval.Value, len(s.GroupBy))
				for i, g := range s.GroupBy {
					key[i] = g.Eval(row)
				}
				if compareKeyVals(key, s.cur.key) != 0 {
					b.Append(s.groupRow(s.cur))
					emitted++
					s.cur = s.newGroup(row)
				}
			}
			s.cur.addRow(row)
		}
		if err := ctx.credit(s.slot, 0, emitted); err != nil {
			return err
		}
		if b.Len() >= want || (n < want && b.Len() > 0) {
			return nil
		}
	}
}

// Close implements Operator.
func (s *StreamAgg) Close() error { return s.child.Close() }

// Children implements Operator.
func (s *StreamAgg) Children() []Operator { return []Operator{s.child} }

// Name implements Operator.
func (s *StreamAgg) Name() string {
	if len(s.GroupBy) == 0 {
		return fmt.Sprintf("ScalarAgg(aggs=%d)", len(s.Aggs))
	}
	return fmt.Sprintf("StreamAgg(groups=%d, aggs=%d)", len(s.GroupBy), len(s.Aggs))
}

// FinalBounds implements Operator.
func (s *StreamAgg) FinalBounds(ch []CardBounds) CardBounds {
	if len(s.GroupBy) == 0 {
		return CardBounds{LB: 1, UB: 1}
	}
	lb := ch[0].LB
	if lb > 1 {
		lb = 1
	}
	return CardBounds{LB: lb, UB: ch[0].UB}
}

// StreamChildren implements Operator: grouped stream aggregation emits while
// consuming, so its input shares the pipeline.
func (s *StreamAgg) StreamChildren() []int { return []int{0} }

// BlockingChildren implements Operator.
func (s *StreamAgg) BlockingChildren() []int { return nil }
