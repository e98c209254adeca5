package exec

import (
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Distinct eliminates duplicate rows, streaming: the first occurrence of
// each row passes through in input order, later duplicates are dropped. It
// is a linear operator (output at most input) and, unlike a sort-based
// dedup, pipelines — it shares its input's pipeline.
type Distinct struct {
	base
	stream
	child Operator
	seen  map[uint64][]schema.Row
}

// NewDistinct wraps child with duplicate elimination over all columns.
func NewDistinct(child Operator) *Distinct {
	d := &Distinct{child: child}
	d.init(child.Schema())
	return d
}

// Open implements Operator.
func (d *Distinct) Open(ctx *Ctx) error {
	d.reopen()
	d.seen = make(map[uint64][]schema.Row)
	d.reset()
	return d.child.Open(ctx)
}

func rowHash(row schema.Row) uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range row {
		h = h*1099511628211 ^ sqlval.Hash(v)
	}
	return h
}

func rowsEqual(a, b schema.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if sqlval.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// NextBatch implements Operator: dedups each child chunk whole. Retaining
// rows in the seen table is safe — batch rows remain valid indefinitely (see
// Batch).
func (d *Distinct) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return d.pull(ctx, &d.base, d.child, b, want, func(in []schema.Row, out *Batch) int {
		kept := 0
	rows:
		for _, row := range in {
			h := rowHash(row)
			for _, prev := range d.seen[h] {
				if rowsEqual(prev, row) {
					continue rows
				}
			}
			d.seen[h] = append(d.seen[h], row)
			out.Append(row)
			kept++
		}
		return kept
	})
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.child.Close()
}

// Children implements Operator.
func (d *Distinct) Children() []Operator { return []Operator{d.child} }

// Name implements Operator.
func (d *Distinct) Name() string { return "Distinct" }

// FinalBounds implements Operator.
func (d *Distinct) FinalBounds(ch []CardBounds) CardBounds {
	lb := ch[0].LB
	if lb > 1 {
		lb = 1
	}
	return CardBounds{LB: lb, UB: ch[0].UB}
}

// StreamChildren implements Operator.
func (d *Distinct) StreamChildren() []int { return []int{0} }

// BlockingChildren implements Operator.
func (d *Distinct) BlockingChildren() []int { return nil }
