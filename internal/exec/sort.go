package exec

import (
	"cmp"
	"fmt"
	"slices"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// SortKey is one ordering term.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort is a blocking full sort: Open drains the child (counted GetNext
// calls), sorts, and NextBatch streams the result. Its output cardinality equals
// its input cardinality exactly, so once the build completes the node's
// bounds collapse — the refinement that drives pmax's convergence on
// multi-pipeline plans (Figure 6).
type Sort struct {
	base
	child Operator
	Keys  []SortKey
	rows  []schema.Row
	pos   int
	// limit > 0: a Top(limit) sits directly above and never pulls more, so
	// Open keeps only the first limit rows of the sort order, in top.
	limit int64
	top   []sortEntry
}

// sortEntry is a row with its arrival number, the tie-break that makes the
// bounded sort reproduce the stable sort's order.
type sortEntry struct {
	row schema.Row
	seq int64
}

// NewSort builds a sort operator.
func NewSort(child Operator, keys []SortKey) *Sort {
	s := &Sort{child: child, Keys: keys}
	s.init(child.Schema())
	return s
}

// SetLimit tells the sort that its parent is a Top(k), k > 0: the rows past
// the k-th of the sorted order are never pulled, so Open need not keep them.
// The k rows it does emit, and every count, are those of the full sort.
func (s *Sort) SetLimit(k int64) { s.limit = k }

// compare orders two rows by the sort keys.
func (s *Sort) compare(a, b schema.Row) int {
	for _, k := range s.Keys {
		c := sqlval.Compare(k.Expr.Eval(a), k.Expr.Eval(b))
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func (s *Sort) compareEntries(a, b sortEntry) int {
	if c := s.compare(a.row, b.row); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Open implements Operator.
func (s *Sort) Open(ctx *Ctx) error {
	s.reopen()
	s.pos = 0
	if s.limit <= 0 {
		var err error
		if s.rows, err = drainAll(ctx, s.child, s.rows); err != nil {
			return err
		}
		slices.SortStableFunc(s.rows, s.compare)
		return nil
	}
	s.rows, s.top = s.rows[:0], s.top[:0]
	seq := int64(0)
	err := drain(ctx, s.child, func(rows []schema.Row) {
		for _, row := range rows {
			s.offer(sortEntry{row, seq})
			seq++
		}
	})
	if err != nil {
		return err
	}
	slices.SortFunc(s.top, s.compareEntries)
	for _, e := range s.top {
		s.rows = append(s.rows, e.row)
	}
	return nil
}

// offer keeps the limit smallest entries seen so far in s.top, a max-heap
// once it is full. A row that ties with the heap's largest arrived later and
// loses, as it would in the stable sort.
func (s *Sort) offer(e sortEntry) {
	h := s.top
	if int64(len(h)) < s.limit {
		s.top = append(h, e)
		if int64(len(s.top)) == s.limit {
			for i := len(s.top)/2 - 1; i >= 0; i-- {
				s.siftDown(i)
			}
		}
		return
	}
	if s.compare(e.row, h[0].row) < 0 {
		h[0] = e
		s.siftDown(0)
	}
}

func (s *Sort) siftDown(i int) {
	h := s.top
	for {
		m := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if s.compareEntries(h[c], h[m]) > 0 {
				m = c
			}
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// NextBatch implements Operator: slices up to want rows off the sorted run,
// credited at once.
func (s *Sort) NextBatch(ctx *Ctx, b *Batch, want int) error {
	b.Reset()
	if s.pos >= len(s.rows) {
		s.markDone()
		return nil
	}
	n := min(len(s.rows)-s.pos, want)
	b.Rows = append(b.Rows, s.rows[s.pos:s.pos+n]...)
	s.pos += n
	return ctx.credit(s.slot, 0, n)
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows, s.top = nil, nil
	return s.child.Close()
}

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.child} }

// Name implements Operator.
func (s *Sort) Name() string { return fmt.Sprintf("Sort(%d keys)", len(s.Keys)) }

// FinalBounds implements Operator: exactly the child's cardinality.
func (s *Sort) FinalBounds(ch []CardBounds) CardBounds { return ch[0] }

// StreamChildren implements Operator.
func (s *Sort) StreamChildren() []int { return nil }

// BlockingChildren implements Operator: the input is fully consumed during
// Open, ending its pipeline.
func (s *Sort) BlockingChildren() []int { return []int{0} }
