package exec

import (
	"fmt"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/index"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Scan is a full table scan over a base store. It is the canonical leaf:
// its final cardinality is known exactly from the catalog, so its bounds are
// tight from the start — the anchor of the paper's LB (Section 5.2).
//
// The scan reads through the schema.Store seam, so the same operator covers
// the in-memory schema.Relation and disk-backed stores (pager.PagedRelation).
// In-memory relations keep a direct row-slice path (it also carries the
// permutation); every other store is driven
// through its cursor, with any weighted physical-read units the storage
// charges flowing into this node's ledger slot as extra counted GetNext
// units (see DESIGN.md §16). Such a scan can be told which columns the plan
// above it reads (NewStoreScan): its cursor then decodes only those and its
// schema holds only those. A GetNext call is a row, however wide, so the
// scan's counts and bounds are the full-width scan's.
type Scan struct {
	base
	// Rel is the in-memory relation when the scan reads one; nil for scans
	// over other stores.
	Rel *schema.Relation
	// Src is the store the scan reads (equal to Rel for in-memory scans).
	Src schema.Store
	// cols lists the store columns a cursor-driven scan asks its cursor for;
	// nil means all of them.
	cols []int
	cur  schema.Cursor
	pos  int
	// Order optionally permutes the scan: row i of the scan is
	// Rel.Rows[Order[i]]. The paper's Section 4/5 experiments control the
	// arrival order of driver tuples (skew-first, skew-last, random) through
	// exactly such a permutation of the stored relation. In-memory scans
	// only.
	Order []int32
	// Pred is an optional predicate pushed into the scan, the way
	// commercial engines embed single-table predicates in the access
	// operator. Every scanned row costs one GetNext call (the row was
	// read), but only passing rows are delivered to the parent — so the
	// scan's count stays its full cardinality, matching the paper's "the
	// outer relation has to be scanned once" accounting, while no separate
	// sigma node inflates total(Q).
	Pred expr.Expr
	// hi is the store's row count: the scan ends when pos reaches it.
	hi int
}

// NewScan builds a table scan over an in-memory relation.
func NewScan(rel *schema.Relation) *Scan {
	s := &Scan{Rel: rel, Src: rel}
	s.init(rel.Schema())
	return s
}

// NewStoreScan builds a table scan over any store (in-memory or paged).
// cols, when non-nil, lists the positions in the store's schema of the only
// columns the plan above reads (strictly ascending, possibly none): the scan
// emits rows of exactly those columns. In-memory relations are the
// exception — their scans hand out the stored rows themselves, so cols is
// ignored and the schema stays the relation's: copying each row to narrow
// it would cost more than the width it saves.
func NewStoreScan(st schema.Store, cols []int) *Scan {
	if rel, ok := st.(*schema.Relation); ok {
		return NewScan(rel)
	}
	s := &Scan{Src: st, cols: cols}
	s.init(pickColumns(st.Schema(), cols))
	return s
}

// NewScanWithOrder builds a table scan that visits rows in the given
// permutation order.
func NewScanWithOrder(rel *schema.Relation, order []int32) *Scan {
	if order != nil && len(order) != len(rel.Rows) {
		panic(fmt.Sprintf("scan %s: order length %d != %d rows", rel.Name, len(order), len(rel.Rows)))
	}
	s := &Scan{Rel: rel, Src: rel, Order: order}
	s.init(rel.Schema())
	return s
}

// Open implements Operator.
func (s *Scan) Open(*Ctx) error {
	s.reopen()
	s.pos, s.hi = 0, int(s.Src.Cardinality())
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
	if s.Rel == nil {
		cur, err := s.Src.OpenCursor(s.cols)
		if err != nil {
			return err
		}
		s.cur = cur
	}
	return nil
}

// NextBatch implements Operator: one pass over scan positions until want
// rows are delivered or the store ends, crediting the rows read (plus any
// weighted physical-read units the storage charged) as counted calls and the
// predicate survivors as delivered. Rejected rows and read units are credited
// as they are read, in pieces of at most want, and the delivered rows last:
// a selective predicate moves Curr a pull at a time, and a one-row pull
// credits its calls in the iterator model's order.
func (s *Scan) NextBatch(ctx *Ctx, b *Batch, want int) error {
	b.Reset()
	if s.pos >= s.hi {
		s.markDone()
		return nil
	}
	switch {
	case s.cur != nil:
		// Store-cursor path: pull page-sized chunks. The cursor hands out
		// row-header slices over its decoded pages, so the bulk append
		// copies headers, never values.
		for s.pos < s.hi && b.Len() < want {
			rows, u, err := s.cur.NextChunk(want - b.Len())
			if err != nil {
				return err
			}
			if len(rows) == 0 {
				break
			}
			s.pos += len(rows)
			kept := b.Len()
			if s.Pred == nil {
				b.Rows = append(b.Rows, rows...)
			} else {
				for _, row := range rows {
					if expr.Truthy(s.Pred.Eval(row)) {
						b.Append(row)
					}
				}
			}
			if err := ctx.creditPieces(s.slot, int64(len(rows)-(b.Len()-kept))+u, 0, want); err != nil {
				return err
			}
		}
	case s.Order == nil && s.Pred == nil:
		// Plain in-order scan: the whole chunk survives, so copy the row
		// headers in one bulk append instead of a per-row loop.
		n := min(s.hi-s.pos, want)
		b.Rows = append(b.Rows, s.Rel.Rows[s.pos:s.pos+n]...)
		s.pos += n
	default:
		for s.pos < s.hi && b.Len() < want {
			rejected := 0
			for end := min(s.pos+want, s.hi); s.pos < end && b.Len() < want; {
				i := s.pos
				s.pos++
				if s.Order != nil {
					i = int(s.Order[i])
				}
				row := s.Rel.Rows[i]
				if s.Pred != nil && !expr.Truthy(s.Pred.Eval(row)) {
					rejected++
					continue
				}
				b.Append(row)
			}
			if err := ctx.credit(s.slot, int64(rejected), 0); err != nil {
				return err
			}
		}
	}
	if err := ctx.credit(s.slot, 0, b.Len()); err != nil {
		return err
	}
	if b.Len() == 0 {
		// Every remaining row failed the embedded predicate: the reads are
		// counted and the store is exhausted.
		s.markDone()
	}
	return nil
}

// Close implements Operator.
func (s *Scan) Close() error {
	if s.cur != nil {
		err := s.cur.Close()
		s.cur = nil
		return err
	}
	return nil
}

// Children implements Operator.
func (s *Scan) Children() []Operator { return nil }

// Name implements Operator.
func (s *Scan) Name() string { return fmt.Sprintf("Scan(%s)", s.Src.StoreName()) }

// FinalBounds implements Operator: a scan performs exactly one GetNext per
// stored row, plus — for stores that charge weighted physical-read units —
// up to MaxReadUnits extra counted units when every page has to be read
// cold. The LB stays the row count: a fully warm buffer pool serves the
// scan with zero physical reads. This widened interval is precisely the
// paper's I/O-bound caveat made explicit: under cold cache the true total
// sits near the UB, and estimators anchored on LB (dne before refinement,
// safe's geometric mean) carry the corresponding error.
func (s *Scan) FinalBounds([]CardBounds) CardBounds {
	n := s.Src.Cardinality()
	return CardBounds{LB: n, UB: SatAdd(n, s.MaxReadUnits())}
}

// MaxReadUnits implements WeightedLeaf: the most weighted physical-read
// units this scan can charge on top of its per-row calls (0 for in-memory
// and zero-cost stores) — every page read cold, once.
func (s *Scan) MaxReadUnits() int64 {
	if rc, ok := s.Src.(schema.ReadCoster); ok {
		return rc.MaxReadUnits()
	}
	return 0
}

// DeliveredBounds implements DeliveredBounder: bounds on rows handed to the
// parent — always row-based, never including weighted read units (I/O work
// inflates this node's call count, not its parent's input).
func (s *Scan) DeliveredBounds() CardBounds {
	n := s.Src.Cardinality()
	if s.Pred == nil {
		return CardBounds{LB: n, UB: n}
	}
	return CardBounds{LB: 0, UB: n}
}

// StreamChildren implements Operator.
func (s *Scan) StreamChildren() []int { return nil }

// RangeScan is a leaf that scans an ordered index over [Lo, Hi]. Its exact
// cardinality is only discovered at Open; plan-time bounds come from
// histogram bucket boundaries (Section 5.1, footnote 2) supplied by the
// builder through SetStaticBounds.
type RangeScan struct {
	base
	Idx            *index.Ordered
	Lo, Hi         *sqlval.Value
	LoIncl, HiIncl bool
	rng            index.Range
	pos            int
	static         *CardBounds
	// Pred is an optional residual predicate embedded in the scan, with the
	// same accounting as Scan.Pred.
	Pred expr.Expr
}

// NewRangeScan builds a range scan over an ordered index; nil bounds are
// open ends.
func NewRangeScan(idx *index.Ordered, lo, hi *sqlval.Value, loIncl, hiIncl bool) *RangeScan {
	r := &RangeScan{Idx: idx, Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl}
	r.init(idx.Rel.Schema())
	return r
}

// SetStaticBounds records plan-time cardinality bounds (from histograms).
func (r *RangeScan) SetStaticBounds(b CardBounds) { r.static = &b }

// Open implements Operator.
func (r *RangeScan) Open(*Ctx) error {
	r.reopen()
	r.rng = r.Idx.SeekRange(r.Lo, r.Hi, r.LoIncl, r.HiIncl)
	r.pos = r.rng.Start
	return nil
}

// NextBatch implements Operator (same accounting as Scan).
func (r *RangeScan) NextBatch(ctx *Ctx, b *Batch, want int) error {
	b.Reset()
	if r.pos >= r.rng.End {
		r.markDone()
		return nil
	}
	scanned := 0
	for r.pos < r.rng.End && b.Len() < want {
		row := r.Idx.Rel.Rows[r.Idx.At(r.pos)]
		r.pos++
		scanned++
		if r.Pred != nil && !expr.Truthy(r.Pred.Eval(row)) {
			continue
		}
		b.Append(row)
	}
	if err := ctx.credit(r.slot, int64(scanned-b.Len()), b.Len()); err != nil {
		return err
	}
	if b.Len() == 0 {
		r.markDone()
	}
	return nil
}

// Close implements Operator.
func (r *RangeScan) Close() error { return nil }

// Children implements Operator.
func (r *RangeScan) Children() []Operator { return nil }

// Name implements Operator.
func (r *RangeScan) Name() string {
	lo, hi := "-inf", "+inf"
	if r.Lo != nil {
		lo = r.Lo.String()
	}
	if r.Hi != nil {
		hi = r.Hi.String()
	}
	return fmt.Sprintf("RangeScan(%s, [%s, %s])", r.Idx, lo, hi)
}

// FinalBounds implements Operator. Without histogram bounds the range could
// be anywhere from empty to the whole relation.
func (r *RangeScan) FinalBounds([]CardBounds) CardBounds {
	if r.static != nil {
		return *r.static
	}
	return CardBounds{LB: 0, UB: r.Idx.Rel.Cardinality()}
}

// DeliveredBounds implements DeliveredBounder.
func (r *RangeScan) DeliveredBounds() CardBounds {
	b := r.FinalBounds(nil)
	if r.Pred != nil {
		b.LB = 0
	}
	return b
}

// StreamChildren implements Operator.
func (r *RangeScan) StreamChildren() []int { return nil }

// Values is a leaf producing a fixed set of rows (useful in tests and for
// VALUES lists).
type Values struct {
	base
	RowsData []schema.Row
	pos      int
}

// NewValues builds a constant-rows leaf.
func NewValues(sch *schema.Schema, rows []schema.Row) *Values {
	v := &Values{RowsData: rows}
	v.init(sch)
	return v
}

// Open implements Operator.
func (v *Values) Open(*Ctx) error {
	v.reopen()
	v.pos = 0
	return nil
}

// NextBatch implements Operator.
func (v *Values) NextBatch(ctx *Ctx, b *Batch, want int) error {
	b.Reset()
	if v.pos >= len(v.RowsData) {
		v.markDone()
		return nil
	}
	n := min(len(v.RowsData)-v.pos, want)
	b.Rows = append(b.Rows, v.RowsData[v.pos:v.pos+n]...)
	v.pos += n
	return ctx.credit(v.slot, 0, n)
}

// Close implements Operator.
func (v *Values) Close() error { return nil }

// Children implements Operator.
func (v *Values) Children() []Operator { return nil }

// Name implements Operator.
func (v *Values) Name() string { return fmt.Sprintf("Values(%d)", len(v.RowsData)) }

// FinalBounds implements Operator.
func (v *Values) FinalBounds([]CardBounds) CardBounds {
	n := int64(len(v.RowsData))
	return CardBounds{LB: n, UB: n}
}

// StreamChildren implements Operator.
func (v *Values) StreamChildren() []int { return nil }
