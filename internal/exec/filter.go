package exec

import (
	"fmt"
	"strings"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Filter passes through rows whose predicate evaluates to TRUE (sigma). It is
// a linear operator: its output is at most its input.
type Filter struct {
	base
	stream
	child Operator
	Pred  expr.Expr
}

// NewFilter wraps child with a selection predicate.
func NewFilter(child Operator, pred expr.Expr) *Filter {
	f := &Filter{child: child, Pred: pred}
	f.init(child.Schema())
	return f
}

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx) error {
	f.reopen()
	f.reset()
	return f.child.Open(ctx)
}

// NextBatch implements Operator: each child chunk is filtered whole.
func (f *Filter) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return f.pull(ctx, &f.base, f.child, b, want, func(in []schema.Row, out *Batch) int {
		kept := 0
		for _, row := range in {
			if expr.Truthy(f.Pred.Eval(row)) {
				out.Append(row)
				kept++
			}
		}
		return kept
	})
}

// Close implements Operator.
func (f *Filter) Close() error { return f.child.Close() }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.child} }

// Name implements Operator.
func (f *Filter) Name() string { return fmt.Sprintf("Filter(%s)", f.Pred) }

// FinalBounds implements Operator: 0 to everything the child produces.
func (f *Filter) FinalBounds(ch []CardBounds) CardBounds {
	return CardBounds{LB: 0, UB: ch[0].UB}
}

// StreamChildren implements Operator.
func (f *Filter) StreamChildren() []int { return []int{0} }

// BlockingChildren implements Operator.
func (f *Filter) BlockingChildren() []int { return nil }

// Project computes one output expression per column (pi). It is one-to-one.
type Project struct {
	base
	stream
	child Operator
	Exprs []expr.Expr
	arena rowArena // chunked backing storage for output rows
}

// outputColumn is the column an operator emits for e, computed over rows of
// in, under name. A plain column emitted under its own name keeps its
// table, so a qualified reference above still tells it from a namesake of
// another table; anything else is a derived column, with none.
func outputColumn(in *schema.Schema, e expr.Expr, name string, kind sqlval.Kind) schema.Column {
	out := schema.Column{Name: name, Type: kind}
	if c, ok := e.(expr.Col); ok && strings.EqualFold(in.Columns[c.Index].Name, name) {
		out.Table = in.Columns[c.Index].Table
	}
	return out
}

// NewProject builds a projection; names and types give the output schema.
func NewProject(child Operator, exprs []expr.Expr, names []string, types []sqlval.Kind) *Project {
	if len(exprs) != len(names) || len(exprs) != len(types) {
		panic("project: exprs/names/types arity mismatch")
	}
	cols := make([]schema.Column, len(exprs))
	for i := range cols {
		cols[i] = outputColumn(child.Schema(), exprs[i], names[i], types[i])
	}
	p := &Project{child: child, Exprs: exprs}
	p.init(schema.New(cols...))
	return p
}

// Open implements Operator.
func (p *Project) Open(ctx *Ctx) error {
	p.reopen()
	p.reset()
	return p.child.Open(ctx)
}

// NextBatch implements Operator. Output rows are carved from a chunked
// arena: one backing allocation per ~256 rows instead of one per row.
func (p *Project) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return p.pull(ctx, &p.base, p.child, b, want, func(in []schema.Row, out *Batch) int {
		for _, row := range in {
			r := p.arena.row(len(p.Exprs))
			for i, e := range p.Exprs {
				r[i] = e.Eval(row)
			}
			out.Append(r)
		}
		return len(in)
	})
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.child} }

// Name implements Operator.
func (p *Project) Name() string { return fmt.Sprintf("Project(%d cols)", len(p.Exprs)) }

// FinalBounds implements Operator: exactly the child's cardinality.
func (p *Project) FinalBounds(ch []CardBounds) CardBounds { return ch[0] }

// StreamChildren implements Operator.
func (p *Project) StreamChildren() []int { return []int{0} }

// BlockingChildren implements Operator.
func (p *Project) BlockingChildren() []int { return nil }

// Top emits the first K rows of its input (LIMIT).
type Top struct {
	base
	child Operator
	K     int64
	n     int64
	in    Batch // one-row child-pull scratch
}

// NewTop builds a LIMIT K operator.
func NewTop(child Operator, k int64) *Top {
	t := &Top{child: child, K: k}
	t.init(child.Schema())
	return t
}

// Open implements Operator.
func (t *Top) Open(ctx *Ctx) error {
	t.reopen()
	t.n = 0
	return t.child.Open(ctx)
}

// NextBatch implements Operator. A LIMIT must consume its input lazily —
// a chunked pull would count child work the limit never hands out — so Top
// pulls its child one row at a time at any want, batching only its output.
func (t *Top) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return t.rowWise(ctx, b, want, func(ctx *Ctx) (schema.Row, bool, error) {
		if t.n >= t.K {
			return nil, false, nil
		}
		row, ok, err := pullOne(ctx, t.child, &t.in)
		if ok {
			t.n++
		}
		return row, ok, err
	})
}

// Close implements Operator.
func (t *Top) Close() error { return t.child.Close() }

// Children implements Operator.
func (t *Top) Children() []Operator { return []Operator{t.child} }

// Name implements Operator.
func (t *Top) Name() string { return fmt.Sprintf("Top(%d)", t.K) }

// FinalBounds implements Operator.
func (t *Top) FinalBounds(ch []CardBounds) CardBounds {
	lb, ub := ch[0].LB, ch[0].UB
	if lb > t.K {
		lb = t.K
	}
	if ub > t.K {
		ub = t.K
	}
	return CardBounds{LB: lb, UB: ub}
}

// StreamChildren implements Operator.
func (t *Top) StreamChildren() []int { return []int{0} }

// BlockingChildren implements Operator.
func (t *Top) BlockingChildren() []int { return nil }
