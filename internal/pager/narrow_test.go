package pager

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// drain reads a cursor to its end in chunks of `chunk` rows and returns the
// rows and the read units it charged.
func drain(t *testing.T, cur schema.Cursor, chunk int) ([]schema.Row, int64) {
	t.Helper()
	defer cur.Close()
	var out []schema.Row
	var units int64
	for {
		rows, u, err := cur.NextChunk(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			return out, units
		}
		out = append(out, rows...)
		units += u
	}
}

// TestNarrowedCursorIsProjection holds a cursor opened with a column list to
// the store contract: it returns exactly the listed columns of the rows the
// full-width cursor returns, a row at a time and in chunks, and charges the
// same read units. The in-memory relation's cursor is held to the same
// contract.
func TestNarrowedCursorIsProjection(t *testing.T) {
	const n = 3000
	rel := testRel(t, "nw", n)
	hf := openTestFile(t, writeTestFile(t, rel))
	if hf.DataPages() < 4 {
		t.Fatalf("want several pages, have %d", hf.DataPages())
	}
	colLists := [][]int{{}, {0}, {1}, {2}, {0, 2}, {1, 2}, {0, 1, 2}}
	for _, cols := range colLists {
		for _, chunk := range []int{1, 64, 1 << 20} {
			// A fresh pool per run, so both cursors read every page cold.
			open := func(st schema.Store, cols []int) schema.Cursor {
				cur, err := st.OpenCursor(cols)
				if err != nil {
					t.Fatal(err)
				}
				return cur
			}
			paged := func() *PagedRelation {
				pr := NewPagedRelation(hf, NewPool(4))
				pr.SetReadCost(3)
				return pr
			}
			full, fullUnits := drain(t, open(paged(), nil), chunk)
			got, gotUnits := drain(t, open(paged(), cols), chunk)
			mem, _ := drain(t, open(rel, cols), chunk)
			label := fmt.Sprintf("cols %v chunk %d", cols, chunk)
			if len(got) != len(full) || len(mem) != len(full) || len(full) != n {
				t.Fatalf("%s: %d paged rows, %d in-memory, %d full-width, want %d", label, len(got), len(mem), len(full), n)
			}
			if gotUnits != fullUnits {
				t.Fatalf("%s: %d read units, full-width cursor charged %d", label, gotUnits, fullUnits)
			}
			for i, row := range full {
				want := make(schema.Row, len(cols))
				for j, c := range cols {
					want[j] = row[c]
				}
				if !sameRow(got[i], want) {
					t.Fatalf("%s: paged row %d is %v, want %v", label, i, got[i], want)
				}
				if !sameRow(mem[i], want) {
					t.Fatalf("%s: in-memory row %d is %v, want %v", label, i, mem[i], want)
				}
			}
		}
	}
}

func TestOpenCursorRejectsBadColumnList(t *testing.T) {
	rel := testRel(t, "bc", 10)
	pr := NewPagedRelation(openTestFile(t, writeTestFile(t, rel)), NewPool(0))
	for _, st := range []schema.Store{pr, rel} {
		for _, cols := range [][]int{{3}, {-1}, {1, 0}, {1, 1}, {0, 1, 2, 3}} {
			if _, err := st.OpenCursor(cols); err == nil {
				t.Errorf("%T: column list %v accepted", st, cols)
			}
		}
	}
}

// corruptRowValues is one row touching every value kind; column 0 is the
// only one the narrowed decode reads.
var corruptRowValues = schema.Row{
	sqlval.Int(7),
	sqlval.String("hello"),
	sqlval.Date(9000),
	sqlval.Null(),
	sqlval.Bool(true),
	sqlval.Float(2.5),
	sqlval.Int(-3),
}

// encodeRow returns the row's page encoding and the offset at which each
// column's value starts.
func encodeRow(row schema.Row) (enc []byte, at []int) {
	for _, v := range row {
		at = append(at, len(enc))
		enc = v.AppendBinary(enc)
	}
	return enc, at
}

// TestDecodePageChecksUnreadColumns damages a row inside columns the
// narrowed decode steps over and requires the error the full decode gives:
// reading fewer columns must not mean trusting more bytes.
func TestDecodePageChecksUnreadColumns(t *testing.T) {
	good, at := encodeRow(corruptRowValues)
	cols := len(corruptRowValues)
	splice := func(from, to int, with ...byte) []byte {
		out := append([]byte{}, good[:from]...)
		out = append(out, with...)
		return append(out, good[to:]...)
	}
	overflow := append([]byte{byte(sqlval.KindInt)}, make([]byte, 11)...)
	for i := 1; i < len(overflow); i++ {
		overflow[i] = 0xff
	}
	cases := []struct {
		name string
		row  []byte
		slot func(page []byte) // extra damage to the finished page
		want string
	}{
		{name: "kind tag flipped", row: splice(at[1], at[1]+1, 99), want: "row 1 col 1: sqlval: unknown kind tag 99"},
		{name: "kind tag flipped in last column", row: splice(at[6], at[6]+1, 200), want: "row 1 col 6: sqlval: unknown kind tag 200"},
		{name: "string length past the row", row: splice(at[1]+1, at[1]+2, 0x7f), want: "row 1 col 1: sqlval: truncated string"},
		{name: "string length varint unterminated", row: good[:at[1]+1], want: "row 1 col 1: sqlval: truncated string"},
		{name: "varint unterminated", row: splice(at[6], len(good), byte(sqlval.KindInt), 0x80), want: "row 1 col 6: sqlval: bad varint"},
		{name: "varint overflows", row: splice(at[2], at[3], overflow...), want: "row 1 col 2: sqlval: bad varint"},
		{name: "bool cut off", row: good[:at[4]+1], want: "row 1 col 4: sqlval: truncated bool"},
		{name: "float cut off", row: good[:at[5]+4], want: "row 1 col 5: sqlval: truncated float"},
		{name: "row ends a column early", row: good[:at[6]], want: "row 1 col 6: sqlval: empty buffer"},
		{name: "trailing byte", row: append(append([]byte{}, good...), 0), want: "row 1: 1 trailing bytes"},
		{name: "slot outside the page", row: good, want: "corrupt slot 1",
			slot: func(page []byte) {
				binary.LittleEndian.PutUint16(page[PageSize-2*pageSlotSize:], PageSize-2)
			}},
		{name: "slot inside the header", row: good, want: "corrupt slot 1",
			slot: func(page []byte) {
				binary.LittleEndian.PutUint16(page[PageSize-2*pageSlotSize:], 1)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newPageWriter()
			w.add(good)
			w.add(tc.row)
			w.add(good)
			page := w.finish()
			if tc.slot != nil {
				tc.slot(page)
			}
			_, fullErr := decodePage(nil, page, cols, nil)
			if fullErr == nil || !strings.Contains(fullErr.Error(), tc.want) {
				t.Fatalf("full decode: error %v, want one containing %q", fullErr, tc.want)
			}
			for _, keep := range [][]int{{0}, {}, {0, 3}} {
				_, err := decodePage(nil, page, cols, keep)
				if err == nil || err.Error() != fullErr.Error() {
					t.Errorf("decode of columns %v: error %v, full decode gives %v", keep, err, fullErr)
				}
			}
		})
	}
	// The undamaged page decodes, narrowed, to the kept values.
	w := newPageWriter()
	w.add(good)
	rows, err := decodePage(nil, w.finish(), cols, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := (schema.Row{corruptRowValues[0], corruptRowValues[5]}); len(rows) != 1 || !sameRow(rows[0], want) {
		t.Fatalf("narrowed decode gives %v, want %v", rows, want)
	}
}

// shortPageBackend serves one data page with its slot count lowered by one:
// every remaining row still decodes, but the page no longer holds what the
// directory says.
type shortPageBackend struct {
	Backend
	page uint32
}

func (b *shortPageBackend) ReadPage(page uint32, buf []byte) error {
	if err := b.Backend.ReadPage(page, buf); err != nil {
		return err
	}
	if page == b.page {
		binary.LittleEndian.PutUint16(buf, uint16(pageRowCount(buf)-1))
	}
	return nil
}

func TestCursorCatchesDirectoryMismatch(t *testing.T) {
	rel := testRel(t, "dm", 3000)
	hf := openTestFile(t, writeTestFile(t, rel))
	b := &shortPageBackend{Backend: hf.Backend(), page: hf.dataStart + 1}
	for _, cols := range [][]int{nil, {0}, {}} {
		pr := NewPagedRelationBackend(hf, NewPool(4), b)
		cur, err := pr.OpenCursor(cols)
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			var rows []schema.Row
			if rows, _, err = cur.NextChunk(1 << 20); len(rows) == 0 {
				break
			}
		}
		cur.Close()
		if err == nil || !strings.Contains(err.Error(), "directory says") {
			t.Errorf("columns %v: error %v, want the directory mismatch", cols, err)
		}
	}
}
