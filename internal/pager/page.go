// Package pager is the disk-backed storage layer: heap files of slotted
// 8 KiB pages holding sqlval-encoded rows, read through a shared buffer
// pool with pinning and CLOCK eviction. A PagedRelation satisfies the
// schema.Store interface the executor's Scan consumes, which makes
// I/O-bound progress estimation a measured scenario instead of the sleep
// simulation the engine used before: physical page reads are real work,
// observable per page through the pool's counters and — when a read cost
// is configured — charged to the progress ledger as extra weighted GetNext
// units (see DESIGN.md §16).
//
// All I/O goes through the narrow Backend seam, so the fault layer
// (internal/fault) can inject read latency, errors, and cancellations at
// exact page indexes while keeping chaos schedules deterministic.
package pager

import (
	"encoding/binary"
	"fmt"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// PageSize is the fixed size of every page of a heap file.
const PageSize = 8192

// Data pages are classic slotted pages:
//
//	bytes 0..1   uint16  number of row slots
//	bytes 2..3   uint16  end of the packed row-data region
//	bytes 4..    row data, packed front to back
//	...slots...  grow from the page end backward: slot i occupies the four
//	             bytes [PageSize-4(i+1), PageSize-4i) as {off, len uint16}
//
// A row's data is the concatenation of its values' sqlval binary encodings
// (kind tag + payload, self-delimiting); the column count comes from the
// file's schema. Rows never span pages — the page is the unit of I/O and
// of partition alignment.
const (
	pageHdrSize  = 4
	pageSlotSize = 4
)

// pageWriter packs rows into one slotted page.
type pageWriter struct {
	buf   []byte // PageSize bytes
	nrows int
	data  int // end of the packed row-data region
}

func newPageWriter() *pageWriter {
	return &pageWriter{buf: make([]byte, PageSize), data: pageHdrSize}
}

// fits reports whether an encoded row of rowLen bytes still fits.
func (w *pageWriter) fits(rowLen int) bool {
	return w.data+rowLen <= PageSize-pageSlotSize*(w.nrows+1)
}

// add appends one encoded row; the caller must have checked fits.
func (w *pageWriter) add(enc []byte) {
	copy(w.buf[w.data:], enc)
	slot := PageSize - pageSlotSize*(w.nrows+1)
	binary.LittleEndian.PutUint16(w.buf[slot:], uint16(w.data))
	binary.LittleEndian.PutUint16(w.buf[slot+2:], uint16(len(enc)))
	w.data += len(enc)
	w.nrows++
}

// finish seals the header and returns the page image (owned by the writer;
// reset reuses it).
func (w *pageWriter) finish() []byte {
	binary.LittleEndian.PutUint16(w.buf[0:], uint16(w.nrows))
	binary.LittleEndian.PutUint16(w.buf[2:], uint16(w.data))
	return w.buf
}

// reset clears the page for reuse.
func (w *pageWriter) reset() {
	clear(w.buf)
	w.nrows = 0
	w.data = pageHdrSize
}

// pageRowCount reads the slot count of a page image.
func pageRowCount(page []byte) int {
	return int(binary.LittleEndian.Uint16(page[0:]))
}

// decodePage decodes every row of a page image, whose rows are cols values
// wide on disk, appending to rows[:0] one row per slot holding the values at
// positions keep (strictly ascending), or all cols of them when keep is nil.
// Each row is walked once by sqlval.DecodeRow, which checks the columns it
// steps over as it checks the ones it keeps, so a damaged page fails the same
// way whichever columns are read. The returned rows stay valid after the page
// buffer is unpinned or evicted: their values live in one slab per page, and
// the kept strings' bytes, read in place, are then copied into one more.
func decodePage(rows []schema.Row, page []byte, cols int, keep []int) ([]schema.Row, error) {
	rows = rows[:0]
	n := pageRowCount(page)
	if n == 0 {
		return rows, nil
	}
	width := cols
	if keep != nil {
		width = len(keep)
	}
	slab := make([]sqlval.Value, n*width)
	for i := 0; i < n; i++ {
		slot := PageSize - pageSlotSize*(i+1)
		off := int(binary.LittleEndian.Uint16(page[slot:]))
		length := int(binary.LittleEndian.Uint16(page[slot+2:]))
		if off < pageHdrSize || off+length > PageSize {
			return nil, fmt.Errorf("pager: corrupt slot %d: [%d,%d) outside page", i, off, off+length)
		}
		row := slab[i*width : (i+1)*width : (i+1)*width]
		rest, c, err := sqlval.DecodeRow(row, page[off:off+length], cols, keep)
		if err != nil {
			return nil, fmt.Errorf("pager: row %d col %d: %w", i, c, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("pager: row %d: %d trailing bytes", i, len(rest))
		}
		rows = append(rows, row)
	}
	sqlval.Detach(slab)
	return rows, nil
}
