package exec

import (
	"fmt"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/index"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// INLJoin is an index nested loops join: for every outer row it seeks an
// index on the inner base relation. The inner lookup is an access path, not
// a counted plan node — only the join's own output counts, matching the
// paper's Example 1 accounting. This is the paper's canonical nested-
// iteration operator, the one that makes worst-case progress estimation
// impossible (Section 3).
type INLJoin struct {
	base
	stream   // over the outer side
	outer    Operator
	Idx      *index.Hash
	OuterKey expr.Expr
	Mode     JoinMode
	// Linear marks key–foreign-key joins (output at most the larger input).
	Linear bool

	pad schema.Row
	// keyCol is OuterKey's column index when it is a bare column reference
	// (-1 otherwise); the probe loop then reads the value directly instead
	// of going through the Expr interface.
	keyCol int
	arena  rowArena // chunked backing storage for concatenated outputs

	static *CardBounds
	pessimistic
}

// SetStaticBounds records plan-time output-cardinality bounds (from inner-
// column histograms). They are intersected with the fan-out bounds in
// FinalBounds: the static interval is constant over the run, so monotone
// refinement of the dynamic bounds is preserved.
func (j *INLJoin) SetStaticBounds(b CardBounds) { j.static = &b }

// NewINLJoin builds an index nested loops join probing idx with the value of
// outerKey for each outer row.
func NewINLJoin(outer Operator, idx *index.Hash, outerKey expr.Expr, mode JoinMode) *INLJoin {
	var sch *schema.Schema
	switch mode {
	case SemiJoin, AntiJoin:
		sch = outer.Schema()
	default:
		sch = outer.Schema().Concat(idx.Rel.Schema())
	}
	j := &INLJoin{outer: outer, Idx: idx, OuterKey: outerKey, Mode: mode}
	j.init(sch)
	return j
}

// Open implements Operator.
func (j *INLJoin) Open(ctx *Ctx) error {
	j.reopen()
	j.reset()
	j.pad = make(schema.Row, j.Idx.Rel.Schema().Len())
	j.keyCol = -1
	if c, ok := j.OuterKey.(expr.Col); ok {
		j.keyCol = c.Index
	}
	return j.outer.Open(ctx)
}

// NextBatch implements Operator: the inner index lookup is an uncounted
// access path, so seeking it for a whole outer chunk at once (stream) moves
// no counted work, and at want == 1 an outer row's further matches wait for
// the next pulls.
func (j *INLJoin) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return j.pull(ctx, &j.base, j.outer, b, want, j.probeBatch)
}

// probeBatch probes the index with every outer row of in, appending join
// output to b, and returns the number of rows emitted. When
// the join is an inner equijoin on a bare column and the index built its
// dense table, the probe loop inlines each lookup to a bounds check and two
// slice indexings; every other shape takes the general Lookup path.
func (j *INLJoin) probeBatch(in []schema.Row, b *Batch) int {
	rows := j.Idx.Rel.Rows
	if j.Mode == InnerJoin && j.keyCol >= 0 {
		if off, pos, lo, ok := j.Idx.Dense(); ok {
			emitted := 0
			for _, outer := range in {
				v := outer[j.keyCol]
				var found []int32
				if v.Kind() == sqlval.KindInt {
					// Negative slots wrap to huge uint64s, so one compare
					// rejects both out-of-range directions.
					if slot := v.AsInt() - lo; uint64(slot) < uint64(len(off)-1) {
						found = pos[off[slot]:off[slot+1]]
					}
				} else {
					found = j.Idx.Lookup(v)
				}
				for _, idx := range found {
					b.Append(j.arena.concat(outer, rows[idx]))
				}
				emitted += len(found)
			}
			return emitted
		}
	}
	emitted := 0
	for _, outer := range in {
		found := j.Idx.Lookup(j.OuterKey.Eval(outer))
		switch j.Mode {
		case SemiJoin:
			if len(found) > 0 {
				b.Append(outer)
				emitted++
			}
		case AntiJoin:
			if len(found) == 0 {
				b.Append(outer)
				emitted++
			}
		case LeftOuterJoin:
			if len(found) == 0 {
				b.Append(j.arena.concat(outer, j.pad))
				emitted++
			} else {
				for _, idx := range found {
					b.Append(j.arena.concat(outer, rows[idx]))
					emitted++
				}
			}
		default:
			for _, idx := range found {
				b.Append(j.arena.concat(outer, rows[idx]))
				emitted++
			}
		}
	}
	return emitted
}

// Close implements Operator.
func (j *INLJoin) Close() error { return j.outer.Close() }

// Children implements Operator: only the outer side is a counted plan node.
func (j *INLJoin) Children() []Operator { return []Operator{j.outer} }

// Name implements Operator.
func (j *INLJoin) Name() string {
	return fmt.Sprintf("INLJoin[%s%s](%s)", j.Mode, linTag(j.Linear), j.Idx)
}

// FinalBounds implements Operator. The inner relation is visible through the
// index: its cardinality and maximum per-key fan-out bound the output. Any
// static (histogram-derived) bounds are intersected in.
func (j *INLJoin) FinalBounds(ch []CardBounds) CardBounds {
	outer := ch[0]
	innerCard := j.Idx.Rel.Cardinality()
	var b CardBounds
	switch j.Mode {
	case SemiJoin, AntiJoin:
		return CardBounds{LB: 0, UB: outer.UB}
	case LeftOuterJoin:
		// Matched output obeys the inner-join bound; unmatched outer rows
		// pad, so the outer side is added on top.
		matched := minI64(SatMul(outer.UB, j.Idx.MaxFanout()), SatMul(outer.UB, innerCard))
		if j.Linear {
			matched = minI64(matched, maxI64(outer.UB, innerCard))
		}
		return CardBounds{LB: outer.LB, UB: SatAdd(matched, outer.UB)}
	default:
		fan := j.Idx.MaxFanout()
		ub := minI64(SatMul(outer.UB, fan), SatMul(outer.UB, innerCard))
		if j.Linear {
			ub = minI64(ub, maxI64(outer.UB, innerCard))
		}
		b = CardBounds{LB: 0, UB: ub}
	}
	if j.static != nil {
		b.LB = maxI64(b.LB, j.static.LB)
		b.UB = minI64(b.UB, j.static.UB)
	}
	return b
}

// StreamChildren implements Operator.
func (j *INLJoin) StreamChildren() []int { return []int{0} }

// NLJoin is a naive nested loops join with an arbitrary predicate: the inner
// subtree is re-opened for every outer row, and, unlike INLJoin's access
// path, the inner is a counted subtree — its GetNext calls accumulate across
// rescans. Provided for completeness; the paper's analysis uses INL.
type NLJoin struct {
	base
	outer, inner Operator
	Pred         expr.Expr // evaluated over the concatenated row; nil = cross
	curOuter     schema.Row
	innerOpen    bool
	outerIn      Batch // one-row child-pull scratch, per side
	innerIn      Batch
}

// NewNLJoin builds a nested loops join.
func NewNLJoin(outer, inner Operator, pred expr.Expr) *NLJoin {
	j := &NLJoin{outer: outer, inner: inner, Pred: pred}
	j.init(outer.Schema().Concat(inner.Schema()))
	return j
}

// Open implements Operator.
func (j *NLJoin) Open(ctx *Ctx) error {
	j.reopen()
	j.curOuter = nil
	j.innerOpen = false
	return j.outer.Open(ctx)
}

// NextBatch implements Operator. The inner is a counted subtree re-opened
// per outer row: rescan timing is inherently row-grained, so NLJoin pulls
// both children one row at a time at any want, batching only its output.
func (j *NLJoin) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return j.rowWise(ctx, b, want, j.next)
}

// next produces the join's next row: one GetNext of its output.
func (j *NLJoin) next(ctx *Ctx) (schema.Row, bool, error) {
	for {
		if j.curOuter == nil {
			outer, ok, err := pullOne(ctx, j.outer, &j.outerIn)
			if err != nil || !ok {
				return nil, false, err
			}
			j.curOuter = outer
			if j.innerOpen {
				if err := j.inner.Close(); err != nil {
					return nil, false, err
				}
			}
			if err := j.inner.Open(ctx); err != nil {
				return nil, false, err
			}
			j.innerOpen = true
		}
		inner, ok, err := pullOne(ctx, j.inner, &j.innerIn)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.curOuter = nil
			continue
		}
		joined := schema.ConcatRows(j.curOuter, inner)
		if j.Pred == nil || expr.Truthy(j.Pred.Eval(joined)) {
			return joined, true, nil
		}
	}
}

// Close implements Operator.
func (j *NLJoin) Close() error {
	var err1 error
	if j.innerOpen {
		err1 = j.inner.Close()
		j.innerOpen = false
	}
	err2 := j.outer.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Children implements Operator.
func (j *NLJoin) Children() []Operator { return []Operator{j.outer, j.inner} }

// Name implements Operator.
func (j *NLJoin) Name() string { return "NLJoin" }

// FinalBounds implements Operator. Child bounds for the inner subtree are
// per-rescan; the progress layer accounts for rescanning via
// RescannedChildren.
func (j *NLJoin) FinalBounds(ch []CardBounds) CardBounds {
	return CardBounds{LB: 0, UB: SatMul(ch[0].UB, ch[1].UB)}
}

// StreamChildren implements Operator.
func (j *NLJoin) StreamChildren() []int { return []int{0} }

// RescannedChildren reports that the inner subtree is re-opened per outer
// row; the progress layer must scale its per-run bounds by the outer
// cardinality and must not pin its totals at EOF.
func (j *NLJoin) RescannedChildren() []int { return []int{1} }

// Rescanner is implemented by operators that re-open some child once per
// driving row (nested iteration over a counted subtree).
type Rescanner interface {
	// RescannedChildren returns the child indexes that are re-opened; the
	// driving side bounding the number of rescans is the operator's first
	// stream child.
	RescannedChildren() []int
}
