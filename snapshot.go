package sqlprogress

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Snapshot format: a small versioned binary layout — magic, table count,
// then per table its name, schema, row data (length-prefixed, values in
// sqlval's binary encoding), followed by the key and foreign-key
// declarations. Statistics are rebuilt on load (they derive from the data).

const snapshotMagic = "SQLPROG1"

// Save writes the database (tables, rows, key declarations) to w. Indexes
// and statistics are not stored; they are rebuilt on Load.
func (db *DB) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	tables := db.cat.TableNames()
	writeUvarint(bw, uint64(len(tables)))
	for _, t := range tables {
		rel, err := db.cat.Relation(t)
		if err != nil {
			return err
		}
		writeString(bw, rel.Name)
		writeUvarint(bw, uint64(rel.Sch.Len()))
		for _, c := range rel.Sch.Columns {
			writeString(bw, c.Name)
			writeUvarint(bw, uint64(c.Type))
		}
		writeUvarint(bw, uint64(len(rel.Rows)))
		var buf []byte
		for _, row := range rel.Rows {
			buf = buf[:0]
			for _, v := range row {
				buf = v.AppendBinary(buf)
			}
			writeUvarint(bw, uint64(len(buf)))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	// Unique declarations are implied by FKs plus explicit ones; persist
	// FKs, then the remaining unique columns.
	fks := db.cat.ForeignKeys()
	writeUvarint(bw, uint64(len(fks)))
	for _, fk := range fks {
		writeString(bw, fk.ChildTable)
		writeString(bw, fk.ChildColumn)
		writeString(bw, fk.ParentTable)
		writeString(bw, fk.ParentColumn)
	}
	var uniques [][2]string
	for _, t := range tables {
		rel, _ := db.cat.Relation(t)
		for _, c := range rel.Sch.Columns {
			if db.cat.IsUnique(t, c.Name) {
				uniques = append(uniques, [2]string{rel.Name, c.Name})
			}
		}
	}
	writeUvarint(bw, uint64(len(uniques)))
	for _, u := range uniques {
		writeString(bw, u[0])
		writeString(bw, u[1])
	}
	return bw.Flush()
}

// Load reads a snapshot written by Save, returning a fresh database with
// statistics rebuilt. An error names the field it was reading (and its
// table, inside one); input that ends early is io.ErrUnexpectedEOF.
func Load(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("sqlprogress: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("sqlprogress: not a snapshot (magic %q)", magic)
	}
	sr := &snapReader{r: br}
	db := Open()
	nTables, err := sr.uvarint("table count")
	if err != nil {
		return nil, err
	}
	for t := uint64(0); t < nTables; t++ {
		sr.table = ""
		name, err := sr.string("table name")
		if err != nil {
			return nil, err
		}
		sr.table = name
		nCols, err := sr.uvarint("column count")
		if err != nil {
			return nil, err
		}
		// Grown as columns arrive: nCols is read from the input, not trusted.
		var cols []schema.Column
		for i := uint64(0); i < nCols; i++ {
			cn, err := sr.string("column name")
			if err != nil {
				return nil, err
			}
			kind, err := sr.uvarint("column kind")
			if err != nil {
				return nil, err
			}
			cols = append(cols, schema.Column{Name: cn, Type: sqlval.Kind(kind)})
		}
		rel := schema.NewRelation(name, schema.New(cols...))
		nRows, err := sr.uvarint("row count")
		if err != nil {
			return nil, err
		}
		var buf []byte // one row's encoding, reused: Detach copies its strings out
		for i := uint64(0); i < nRows; i++ {
			rowLen, err := sr.uvarint("row length")
			if err != nil {
				return nil, err
			}
			if buf, err = readFull(br, buf, rowLen); err != nil {
				return nil, sr.fail(fmt.Sprintf("row %d", i), err)
			}
			row := make(schema.Row, nCols)
			rest, c, err := sqlval.DecodeRow(row, buf, int(nCols), nil)
			if err != nil {
				return nil, fmt.Errorf("sqlprogress: table %s row %d col %d: %w", name, i, c, err)
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("sqlprogress: table %s row %d: %d bytes past its %d values", name, i, len(rest), nCols)
			}
			sqlval.Detach(row)
			rel.Append(row)
		}
		db.cat.AddRelation(rel)
	}
	sr.table = ""
	nFKs, err := sr.uvarint("FK count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nFKs; i++ {
		var parts [4]string
		for j := range parts {
			parts[j], err = sr.string("FK")
			if err != nil {
				return nil, err
			}
		}
		db.cat.DeclareForeignKey(catalog.ForeignKey{
			ChildTable: parts[0], ChildColumn: parts[1],
			ParentTable: parts[2], ParentColumn: parts[3],
		})
	}
	nUniq, err := sr.uvarint("unique count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nUniq; i++ {
		tbl, err := sr.string("unique")
		if err != nil {
			return nil, err
		}
		col, err := sr.string("unique")
		if err != nil {
			return nil, err
		}
		db.cat.DeclareUnique(tbl, col)
	}
	return db, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	w.Write(b[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

// snapReader reads a snapshot's fields past the magic. Each error names the
// field, and the table when one is being read.
type snapReader struct {
	r     *bufio.Reader
	table string
}

// fail wraps err, read at field, turning an EOF into io.ErrUnexpectedEOF:
// past the magic, the input always has more to come.
func (sr *snapReader) fail(field string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if sr.table != "" {
		return fmt.Errorf("sqlprogress: snapshot table %s %s: %w", sr.table, field, err)
	}
	return fmt.Errorf("sqlprogress: snapshot %s: %w", field, err)
}

func (sr *snapReader) uvarint(field string) (uint64, error) {
	v, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return 0, sr.fail(field, err)
	}
	return v, nil
}

func (sr *snapReader) string(field string) (string, error) {
	l, err := sr.uvarint(field)
	if err != nil {
		return "", err
	}
	buf, err := readFull(sr.r, nil, l)
	if err != nil {
		return "", sr.fail(field, err)
	}
	return string(buf), nil
}

// readChunk is the most readFull allocates ahead of the bytes it has read.
const readChunk = 64 << 10

// readFull reads the n bytes a length prefix announces, reusing buf's
// storage. It grows the buffer by at most readChunk ahead of the bytes that
// arrive, so a corrupt prefix larger than the rest of the input is an
// error, not an allocation of the prefix's size.
func readFull(r io.Reader, buf []byte, n uint64) ([]byte, error) {
	buf = buf[:0]
	for uint64(len(buf)) < n {
		k := int(min(n-uint64(len(buf)), readChunk))
		buf = slices.Grow(buf, k)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%d bytes announced, %d read: %w", n, len(buf), err)
		}
	}
	return buf, nil
}
