package pager

import (
	"fmt"

	"sqlprogress/internal/schema"
)

// PagedRelation is a disk-backed base table: an opened heap file read
// through a shared buffer pool. It implements schema.Store, so exec.Scan
// iterates it exactly like an in-memory relation — same row and batch
// paths — while every page touched is a pool access and every pool miss is
// a physical read.
//
// Progress accounting: with a zero read cost (the default) a paged scan
// credits the ledger identically to an in-memory scan of the same rows —
// the paged-vs-memory differential checks rely on this. SetReadCost(w)
// switches the store to page-weighted accounting: a row served from a
// resident page still costs one GetNext unit, but the row whose page was
// physically read costs 1+w units, making Curr reflect I/O work. The
// scan's final-call bounds widen accordingly (exactly +w·pages when every
// page faults, +0 when fully cached), which is the paper's I/O-bound
// regime: wider [LB, UB] degrades dne/safe exactly where the paper says
// GetNext-uniform estimators are weakest.
type PagedRelation struct {
	hf       *HeapFile
	pool     *Pool
	file     *File
	readCost int64
}

// NewPagedRelation binds an opened heap file to a buffer pool.
func NewPagedRelation(hf *HeapFile, pool *Pool) *PagedRelation {
	return &PagedRelation{hf: hf, pool: pool, file: pool.Register(hf.Backend())}
}

// NewPagedRelationBackend binds a heap file to a pool reading through b
// instead of the file's own backend — the hook the fault layer uses to
// interpose page-read faults.
func NewPagedRelationBackend(hf *HeapFile, pool *Pool, b Backend) *PagedRelation {
	return &PagedRelation{hf: hf, pool: pool, file: pool.Register(b)}
}

// SetReadCost sets the extra GetNext units charged per physical page read
// (0 restores pure row accounting).
func (p *PagedRelation) SetReadCost(w int64) {
	if w < 0 {
		panic("pager: negative read cost")
	}
	p.readCost = w
}

// Pool returns the buffer pool the relation reads through.
func (p *PagedRelation) Pool() *Pool { return p.pool }

// StoreName implements schema.Store.
func (p *PagedRelation) StoreName() string { return p.hf.name }

// Schema implements schema.Store.
func (p *PagedRelation) Schema() *schema.Schema { return p.hf.sch }

// Cardinality implements schema.Store.
func (p *PagedRelation) Cardinality() int64 { return p.hf.rows }

// MaxReadUnits implements schema.ReadCoster: a cursor reads each data page
// once, so at most every data page is read physically.
func (p *PagedRelation) MaxReadUnits() int64 {
	return p.readCost * int64(p.hf.dataPages)
}

// OpenCursor implements schema.Store: the cursor decodes only the listed
// columns of each page it visits.
func (p *PagedRelation) OpenCursor(cols []int) (schema.Cursor, error) {
	if err := p.hf.sch.CheckColumns(cols); err != nil {
		return nil, fmt.Errorf("pager: %s: %w", p.hf.name, err)
	}
	return &pagedCursor{pr: p, cols: cols}, nil
}

// pagedCursor iterates a paged relation page by page. It holds no pin
// between calls: each data page is pinned, decoded into fresh rows in one
// step, and released — decoded rows own their storage (a value slab and at
// most one string slab per page), so eviction never invalidates a row
// already handed out. Only the slice of row headers is reused from page to
// page, which the Cursor contract allows.
type pagedCursor struct {
	pr *PagedRelation
	// cols lists the columns decoded into each row; nil means all of them.
	cols []int
	// page is the next data page to load.
	page uint32
	// rows is the decoded current page; idx indexes into it.
	rows []schema.Row
	idx  int
	// units holds the weighted read cost accrued by the last page load and
	// not yet reported to the caller.
	units int64
}

// load faults in the next data page and decodes it.
func (c *pagedCursor) load() error {
	pr := c.pr
	fr, miss, err := pr.pool.Get(pr.file, pr.hf.dataStart+c.page)
	if err != nil {
		return err
	}
	rows, err := decodePage(c.rows, fr.Data(), pr.hf.sch.Len(), c.cols)
	pr.pool.Release(fr)
	if err != nil {
		return fmt.Errorf("pager: %s data page %d: %w", pr.hf.name, c.page, err)
	}
	if want := int(pr.hf.cum[c.page+1] - pr.hf.cum[c.page]); len(rows) != want {
		return fmt.Errorf("pager: %s data page %d holds %d rows, directory says %d",
			pr.hf.name, c.page, len(rows), want)
	}
	c.rows, c.idx = rows, 0
	c.page++
	if miss {
		c.units += pr.readCost
	}
	return nil
}

// NextChunk implements schema.Cursor: one call returns the remainder of
// the current decoded page (clamped to want), so the bulk scan path
// advances page-at-a-time with one pool access per page.
func (c *pagedCursor) NextChunk(want int) ([]schema.Row, int64, error) {
	if c.idx >= len(c.rows) {
		if c.page >= c.pr.hf.dataPages {
			return nil, 0, nil
		}
		if err := c.load(); err != nil {
			return nil, 0, err
		}
	}
	n := min(len(c.rows)-c.idx, want)
	out := c.rows[c.idx : c.idx+n]
	c.idx += n
	units := c.units
	c.units = 0
	return out, units, nil
}

// Close implements schema.Cursor.
func (c *pagedCursor) Close() error {
	c.rows = nil
	return nil
}
