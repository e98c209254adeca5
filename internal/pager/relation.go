package pager

import (
	"fmt"
	"sort"

	"sqlprogress/internal/schema"
)

// PagedRelation is a disk-backed base table: an opened heap file read
// through a shared buffer pool. It implements schema.Store, so exec.Scan
// iterates it exactly like an in-memory relation — same row and batch
// paths, same partition and morsel windows — while every page
// touched is a pool access and every pool miss is a physical read.
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

// HeapFile returns the underlying heap file.
func (p *PagedRelation) HeapFile() *HeapFile { return p.hf }

// StoreName implements schema.Store.
func (p *PagedRelation) StoreName() string { return p.hf.name }

// Schema implements schema.Store.
func (p *PagedRelation) Schema() *schema.Schema { return p.hf.sch }

// Cardinality implements schema.Store.
func (p *PagedRelation) Cardinality() int64 { return p.hf.rows }

// AlignWindow implements schema.Store: partitions split on page
// boundaries, so parallel workers never contend for the same page and each
// worker's physical reads are its own. Pages are split evenly; row windows
// follow from the directory's cumulative counts.
func (p *PagedRelation) AlignWindow(part, parts int) (lo, hi int) {
	if parts <= 1 {
		return 0, int(p.hf.rows)
	}
	np := int(p.hf.dataPages)
	pLo, pHi := np*part/parts, np*(part+1)/parts
	return int(p.hf.cum[pLo]), int(p.hf.cum[pHi])
}

// pageOf returns the data-page index holding scan position pos.
func (p *PagedRelation) pageOf(pos int) uint32 {
	cum := p.hf.cum
	// First page whose cumulative end exceeds pos.
	i := sort.Search(len(cum)-1, func(i int) bool { return cum[i+1] > int64(pos) })
	return uint32(i)
}

// pageSpan returns the data-page range [pLo, pHi) covering scan positions
// [lo, hi).
func (p *PagedRelation) pageSpan(lo, hi int) (uint32, uint32) {
	if lo >= hi {
		return 0, 0
	}
	return p.pageOf(lo), p.pageOf(hi-1) + 1
}

// MaxReadUnits implements schema.ReadCoster: at most every page of the
// window is read physically.
func (p *PagedRelation) MaxReadUnits(lo, hi int) int64 {
	if p.readCost == 0 {
		return 0
	}
	pLo, pHi := p.pageSpan(lo, hi)
	return p.readCost * int64(pHi-pLo)
}

// OpenCursor implements schema.Store: the cursor decodes only the listed
// columns of each page it visits.
func (p *PagedRelation) OpenCursor(lo, hi int, cols []int) (schema.Cursor, error) {
	if lo < 0 || int64(hi) > p.hf.rows || lo > hi {
		return nil, fmt.Errorf("pager: cursor window [%d,%d) outside 0..%d", lo, hi, p.hf.rows)
	}
	if err := p.hf.sch.CheckColumns(cols); err != nil {
		return nil, fmt.Errorf("pager: %s: %w", p.hf.name, err)
	}
	c := &pagedCursor{pr: p, pos: lo, hi: hi, cols: cols}
	if lo < hi {
		c.page = p.pageOf(lo)
	}
	return c, nil
}

// pagedCursor iterates one window of a paged relation. It holds no pin
// between calls: each data page is pinned, decoded into fresh rows in one
// step, and released — decoded rows own their storage, so eviction never
// invalidates a row already handed out.
type pagedCursor struct {
	pr      *PagedRelation
	pos, hi int
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

// load faults in the next page of the window and decodes it, positioning
// idx at the cursor's current scan position within the page.
func (c *pagedCursor) load() error {
	pr := c.pr
	fr, miss, err := pr.pool.Get(pr.file, pr.hf.dataStart+c.page)
	if err != nil {
		return err
	}
	rows, err := decodePage(fr.Data(), pr.hf.sch.Len(), c.cols)
	pr.pool.Release(fr)
	if err != nil {
		return fmt.Errorf("pager: %s data page %d: %w", pr.hf.name, c.page, err)
	}
	pageStart := int(pr.hf.cum[c.page])
	if want := int(pr.hf.cum[c.page+1]) - pageStart; len(rows) != want {
		return fmt.Errorf("pager: %s data page %d holds %d rows, directory says %d",
			pr.hf.name, c.page, len(rows), want)
	}
	c.rows = rows
	c.idx = c.pos - pageStart
	c.page++
	if miss {
		c.units += pr.readCost
	}
	return nil
}

// NextChunk implements schema.Cursor: one call returns the remainder of
// the current decoded page (clamped to the window and to want), so the
// bulk scan path advances page-at-a-time with one pool access per page.
func (c *pagedCursor) NextChunk(want int) ([]schema.Row, int64, error) {
	if c.pos >= c.hi {
		return nil, 0, nil
	}
	if c.idx >= len(c.rows) {
		if err := c.load(); err != nil {
			return nil, 0, err
		}
	}
	n := len(c.rows) - c.idx
	if left := c.hi - c.pos; n > left {
		n = left
	}
	if n > want {
		n = want
	}
	out := c.rows[c.idx : c.idx+n]
	c.idx += n
	c.pos += n
	units := c.units
	c.units = 0
	return out, units, nil
}

// Close implements schema.Cursor.
func (c *pagedCursor) Close() error {
	c.rows = nil
	return nil
}
