package exec

import (
	"fmt"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
)

// INLJoin is an index nested loops join: for every outer row it seeks the
// inner base relation's join column. The inner lookup is an access path, not
// a counted plan node — only the join's own output counts, matching the
// paper's Example 1 accounting. This is the paper's canonical nested-
// iteration operator, the one that makes worst-case progress estimation
// impossible (Section 3).
//
// The access path is the hash join's table (joinTable) over the inner
// relation, built once when the plan is built: it outlives Open/Close, so a
// rescan seeks the same table.
type INLJoin struct {
	base
	stream   // over the outer side
	outer    Operator
	inner    *schema.Relation
	innerCol int
	Mode     JoinMode
	// Linear marks key–foreign-key joins (output at most the larger input).
	Linear bool

	table     joinTable
	maxFanout int64        // the most inner rows one outer key can match
	matchBuf  []schema.Row // reused lookup result buffer
	pad       schema.Row   // NULL padding for left outer
	arena     rowArena     // chunked backing storage for concatenated outputs

	static *CardBounds
	pessimistic
}

// SetStaticBounds records plan-time output-cardinality bounds (from inner-
// column histograms). They are intersected with the fan-out bounds in
// FinalBounds: the static interval is constant over the run, so monotone
// refinement of the dynamic bounds is preserved.
func (j *INLJoin) SetStaticBounds(b CardBounds) { j.static = &b }

// NewINLJoin builds an index nested loops join seeking column innerCol of
// inner with the value of outerKey for each outer row. It builds the lookup
// table over a copy of inner's rows.
func NewINLJoin(outer Operator, inner *schema.Relation, innerCol int, outerKey expr.Expr, mode JoinMode) *INLJoin {
	var sch *schema.Schema
	switch mode {
	case SemiJoin, AntiJoin:
		sch = outer.Schema()
	default:
		sch = outer.Schema().Concat(inner.Schema())
	}
	j := &INLJoin{
		outer: outer, inner: inner, innerCol: innerCol, Mode: mode,
		table: joinTable{buildKeys: []expr.Expr{expr.Col{Index: innerCol}}, probeKeys: []expr.Expr{outerKey}},
		pad:   make(schema.Row, inner.Schema().Len()), // zero Values are NULL
	}
	j.table.build(append([]schema.Row(nil), inner.Rows...))
	j.maxFanout = j.table.maxFanout()
	j.init(sch)
	return j
}

// Open implements Operator.
func (j *INLJoin) Open(ctx *Ctx) error {
	j.reopen()
	j.reset()
	return j.outer.Open(ctx)
}

// NextBatch implements Operator: the inner lookup is an uncounted access
// path, so seeking it for a whole outer chunk at once (stream) moves no
// counted work, and at want == 1 an outer row's further matches wait for the
// next pulls.
func (j *INLJoin) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return j.pull(ctx, &j.base, j.outer, b, want, func(in []schema.Row, out *Batch) int {
		return j.table.probe(j.Mode, in, out, &j.matchBuf, j.pad, j.arena.concat)
	})
}

// Close implements Operator.
func (j *INLJoin) Close() error { return j.outer.Close() }

// Children implements Operator: only the outer side is a counted plan node.
func (j *INLJoin) Children() []Operator { return []Operator{j.outer} }

// Name implements Operator.
func (j *INLJoin) Name() string {
	return fmt.Sprintf("INLJoin[%s%s](hash(%s.%s))", j.Mode, linTag(j.Linear), j.inner.Name, j.inner.Sch.Columns[j.innerCol].Name)
}

// FinalBounds implements Operator. The inner relation is visible through the
// access path: its cardinality and maximum per-key fan-out bound the output.
// Any static (histogram-derived) bounds are intersected in.
func (j *INLJoin) FinalBounds(ch []CardBounds) CardBounds {
	outer := ch[0]
	innerCard := j.inner.Cardinality()
	var b CardBounds
	switch j.Mode {
	case SemiJoin, AntiJoin:
		return CardBounds{LB: 0, UB: outer.UB}
	case LeftOuterJoin:
		// Matched output obeys the inner-join bound; unmatched outer rows
		// pad, so the outer side is added on top.
		matched := minI64(SatMul(outer.UB, j.maxFanout), SatMul(outer.UB, innerCard))
		if j.Linear {
			matched = minI64(matched, maxI64(outer.UB, innerCard))
		}
		return CardBounds{LB: outer.LB, UB: SatAdd(matched, outer.UB)}
	default:
		ub := minI64(SatMul(outer.UB, j.maxFanout), SatMul(outer.UB, innerCard))
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
