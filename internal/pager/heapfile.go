package pager

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// A heap file is the on-disk form of one relation:
//
//	page 0                      meta page (magic, geometry, name, schema)
//	pages 1 .. dirPages         directory: one uint32 row count per data page
//	pages 1+dirPages .. end     slotted data pages
//
// The meta and directory pages are read once at open — a few KiB — so the
// cumulative row-count index that drives positioning and page-aligned
// partitioning is in memory while every data page stays on disk until a
// scan faults it through the buffer pool. That split is what keeps a cold
// scan's physical I/O proportional to the data actually read, the property
// the cold-vs-warm estimator experiments measure.

const (
	heapMagic   = "SQPG"
	heapVersion = 1
	// dirEntriesPerPage is how many per-page row counts one directory page
	// holds.
	dirEntriesPerPage = PageSize / 4
)

// WriteHeapFile writes rows as a heap file at path, creating or truncating
// it. The schema's column names are stored unqualified; OpenHeapFile
// re-qualifies them with the relation name, mirroring schema.NewRelation.
func WriteHeapFile(path, name string, sch *schema.Schema, rows []schema.Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	// Pack the data pages first (buffered in memory page by page, streamed
	// to disk after the meta and directory, whose sizes depend on the page
	// count). Only the per-page row counts are retained.
	tmp, err := os.CreateTemp("", "heapdata-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()

	dataW := bufio.NewWriterSize(tmp, 4*PageSize)
	pw := newPageWriter()
	var perPage []uint32
	var enc []byte
	flushPage := func() error {
		if pw.nrows == 0 {
			return nil
		}
		if _, err := dataW.Write(pw.finish()); err != nil {
			return err
		}
		perPage = append(perPage, uint32(pw.nrows))
		pw.reset()
		return nil
	}
	for i, row := range rows {
		if len(row) != sch.Len() {
			return fmt.Errorf("pager: row %d arity %d != schema arity %d", i, len(row), sch.Len())
		}
		enc = enc[:0]
		for _, v := range row {
			enc = v.AppendBinary(enc)
		}
		if !pw.fits(len(enc)) {
			if pw.nrows == 0 {
				return fmt.Errorf("pager: row %d encodes to %d bytes, exceeding one page", i, len(enc))
			}
			if err := flushPage(); err != nil {
				return err
			}
		}
		pw.add(enc)
	}
	if err := flushPage(); err != nil {
		return err
	}
	if err := dataW.Flush(); err != nil {
		return err
	}

	dataPages := uint32(len(perPage))
	dirPages := (dataPages + dirEntriesPerPage - 1) / dirEntriesPerPage

	w := bufio.NewWriterSize(f, 4*PageSize)
	meta := encodeMeta(name, sch, dataPages, dirPages, uint64(len(rows)))
	if _, err := w.Write(meta); err != nil {
		return err
	}
	dir := make([]byte, PageSize)
	for p := uint32(0); p < dirPages; p++ {
		clear(dir)
		lo := int(p) * dirEntriesPerPage
		hi := min(lo+dirEntriesPerPage, len(perPage))
		for i, n := range perPage[lo:hi] {
			binary.LittleEndian.PutUint32(dir[4*i:], n)
		}
		if _, err := w.Write(dir); err != nil {
			return err
		}
	}
	if _, err := tmp.Seek(0, 0); err != nil {
		return err
	}
	buf := make([]byte, PageSize)
	for p := uint32(0); p < dataPages; p++ {
		if _, err := tmp.ReadAt(buf, int64(p)*PageSize); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// WriteRelation writes an in-memory relation as a heap file — the loader
// cmd/datagen and the tests use to materialize tables on disk. Column
// names are stored unqualified.
func WriteRelation(path string, rel *schema.Relation) error {
	cols := make([]schema.Column, len(rel.Sch.Columns))
	copy(cols, rel.Sch.Columns)
	for i := range cols {
		cols[i].Table = ""
	}
	return WriteHeapFile(path, rel.Name, &schema.Schema{Columns: cols}, rel.Rows)
}

// encodeMeta builds the meta page image.
func encodeMeta(name string, sch *schema.Schema, dataPages, dirPages uint32, rowCount uint64) []byte {
	page := make([]byte, PageSize)
	buf := page[:0]
	buf = append(buf, heapMagic...)
	buf = append(buf, heapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, PageSize)
	buf = binary.LittleEndian.AppendUint32(buf, dataPages)
	buf = binary.LittleEndian.AppendUint32(buf, dirPages)
	buf = binary.LittleEndian.AppendUint64(buf, rowCount)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(sch.Len()))
	for _, c := range sch.Columns {
		buf = append(buf, byte(c.Type))
		buf = binary.AppendUvarint(buf, uint64(len(c.Name)))
		buf = append(buf, c.Name...)
	}
	if len(buf) > PageSize {
		panic(fmt.Sprintf("pager: meta page overflow (%d bytes)", len(buf)))
	}
	return page
}

// HeapFile is an opened heap file: geometry and schema in memory, data
// pages on disk behind the backend.
type HeapFile struct {
	backend Backend
	name    string
	sch     *schema.Schema
	rows    int64
	// dataStart is the file page index of the first data page.
	dataStart uint32
	dataPages uint32
	// cum[i] is the number of rows stored on data pages [0, i): cum has
	// dataPages+1 entries and cum[dataPages] == rows. It is the index that
	// turns scan positions into (page, offset) pairs and page boundaries
	// into partition windows.
	cum []int64
}

// OpenHeapFile opens a heap file, reading only its meta and directory
// pages.
func OpenHeapFile(path string) (*HeapFile, error) {
	b, err := OpenFileBackend(path)
	if err != nil {
		return nil, err
	}
	hf, err := readHeapMeta(b)
	if err != nil {
		b.Close()
		return nil, fmt.Errorf("pager: %s: %w", path, err)
	}
	return hf, nil
}

// readHeapMeta reads and checks the meta and directory pages. Every count
// it allocates by is held to the file's page count first.
func readHeapMeta(b Backend) (*HeapFile, error) {
	page := make([]byte, PageSize)
	if err := b.ReadPage(0, page); err != nil {
		return nil, err
	}
	if string(page[:4]) != heapMagic {
		return nil, fmt.Errorf("not a heap file (bad magic)")
	}
	if page[4] != heapVersion {
		return nil, fmt.Errorf("unsupported heap file version %d", page[4])
	}
	if ps := binary.LittleEndian.Uint32(page[5:]); ps != PageSize {
		return nil, fmt.Errorf("page size %d != %d", ps, PageSize)
	}
	dataPages := binary.LittleEndian.Uint32(page[9:])
	dirPages := binary.LittleEndian.Uint32(page[13:])
	rows := binary.LittleEndian.Uint64(page[17:])
	buf := page[25:]
	nameLen, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < nameLen {
		return nil, fmt.Errorf("corrupt meta page (name)")
	}
	name := string(buf[n : n+int(nameLen)])
	buf = buf[n+int(nameLen):]
	if len(buf) < 2 {
		return nil, fmt.Errorf("corrupt meta page (column count)")
	}
	ncols := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	cols := make([]schema.Column, ncols)
	for i := range cols {
		if len(buf) < 1 {
			return nil, fmt.Errorf("corrupt meta page (column %d)", i)
		}
		kind := sqlval.Kind(buf[0])
		buf = buf[1:]
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return nil, fmt.Errorf("corrupt meta page (column %d name)", i)
		}
		cols[i] = schema.Column{Table: name, Name: string(buf[n : n+int(l)]), Type: kind}
		buf = buf[n+int(l):]
	}
	// Both sums in 64 bits: in uint32 they can wrap, and a header naming
	// billions of pages would pass against a one-page file.
	if wantDir := (uint64(dataPages) + dirEntriesPerPage - 1) / dirEntriesPerPage; uint64(dirPages) != wantDir {
		return nil, fmt.Errorf("directory size %d pages, expected %d", dirPages, wantDir)
	}
	if pages := 1 + uint64(dirPages) + uint64(dataPages); uint64(b.NumPages()) != pages {
		return nil, fmt.Errorf("file has %d pages, header says %d", b.NumPages(), pages)
	}
	cum := make([]int64, dataPages+1)
	for p := uint32(0); p < dirPages; p++ {
		if err := b.ReadPage(1+p, page); err != nil {
			return nil, err
		}
		lo := int64(p) * dirEntriesPerPage
		hi := min(lo+dirEntriesPerPage, int64(dataPages))
		for i := lo; i < hi; i++ {
			n := binary.LittleEndian.Uint32(page[4*(i-lo):])
			cum[i+1] = cum[i] + int64(n)
		}
	}
	if cum[dataPages] != int64(rows) {
		return nil, fmt.Errorf("directory counts %d rows, header says %d", cum[dataPages], rows)
	}
	return &HeapFile{
		backend:   b,
		name:      name,
		sch:       &schema.Schema{Columns: cols},
		rows:      int64(rows),
		dataStart: 1 + dirPages,
		dataPages: dataPages,
		cum:       cum,
	}, nil
}

// Rows returns the stored row count.
func (h *HeapFile) Rows() int64 { return h.rows }

// DataPages returns the number of data pages.
func (h *HeapFile) DataPages() uint32 { return h.dataPages }

// DataStart returns the file page index of the first data page — faults
// targeting physical reads arm on absolute indexes in [DataStart,
// DataStart+DataPages).
func (h *HeapFile) DataStart() uint32 { return h.dataStart }

// Backend returns the file's backend (the seam fault wrappers interpose
// on).
func (h *HeapFile) Backend() Backend { return h.backend }

// Close closes the underlying file.
func (h *HeapFile) Close() error { return h.backend.Close() }
