package sqlprogress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := sampleDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Tables(), db.Tables(); len(got) != len(want) {
		t.Fatalf("tables = %v, want %v", got, want)
	}
	// The same query must produce identical results on both.
	sql := `SELECT u.name, COUNT(*) AS cnt FROM events e JOIN users u ON e.uid = u.id
		GROUP BY u.name ORDER BY u.name`
	r1, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		if FormatRow(r1.Rows[i]) != FormatRow(r2.Rows[i]) {
			t.Errorf("row %d: %s vs %s", i, FormatRow(r1.Rows[i]), FormatRow(r2.Rows[i]))
		}
	}
	// Key declarations survive: the FK join still compiles linear.
	if !loaded.Catalog().JoinIsLinear("events", "uid", "users", "id") {
		t.Error("FK linearity lost across snapshot")
	}
	// Statistics were rebuilt.
	if ts := loaded.Catalog().Stats("users"); ts == nil || ts.RowCount != 50 {
		t.Errorf("stats after load = %+v", ts)
	}
}

// allKindsDB is a database with a column of every kind, a row of NULLs, and
// a foreign key (t.i references p.id).
func allKindsDB(tb testing.TB) *DB {
	tb.Helper()
	db := Open()
	if err := db.CreateTable("t", []Column{
		{Name: "i", Type: Int}, {Name: "f", Type: Float},
		{Name: "s", Type: String}, {Name: "b", Type: Bool}, {Name: "d", Type: Date},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := db.Insert("t",
		[]interface{}{int64(-42), 3.25, "héllo", true, mustDate("1999-12-31")},
		[]interface{}{nil, nil, nil, nil, nil},
		[]interface{}{int64(1 << 40), -0.0, "", false, mustDate("1970-01-01")},
	); err != nil {
		tb.Fatal(err)
	}
	if err := db.CreateTable("p", []Column{{Name: "id", Type: Int}}); err != nil {
		tb.Fatal(err)
	}
	if err := db.Insert("p", []interface{}{int64(-42)}, []interface{}{int64(1 << 40)}); err != nil {
		tb.Fatal(err)
	}
	db.DeclareForeignKey("t", "i", "p", "id")
	return db
}

func TestSnapshotAllValueKinds(t *testing.T) {
	db := allKindsDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.Exec("SELECT * FROM t")
	b, _ := loaded.Exec("SELECT * FROM t")
	for i := range a.Rows {
		if FormatRow(a.Rows[i]) != FormatRow(b.Rows[i]) {
			t.Errorf("row %d: %s vs %s", i, FormatRow(a.Rows[i]), FormatRow(b.Rows[i]))
		}
	}
}

// snap lays out a snapshot: the magic, then each int or Kind as a uvarint
// and each string as raw bytes.
func snap(parts ...any) []byte {
	b := []byte(snapshotMagic)
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			b = binary.AppendUvarint(b, uint64(p))
		case Kind:
			b = binary.AppendUvarint(b, uint64(p))
		case string:
			b = append(b, p...)
		}
	}
	return b
}

// hugePrefixSnapshots each carry a length prefix of 2^62, far past the bytes
// that follow it.
var hugePrefixSnapshots = []struct {
	name string
	in   []byte
}{
	{"table name length 2^62", snap(1, 1<<62, "lineitem")},
	{"column count 2^62", snap(1, 1, "t", 1<<62, 1, "a", Int)},
	{"row length 2^62", snap(1, 1, "t", 1, 1, "a", Int, 1, 1<<62, "\x02\x04")},
}

func TestSnapshotBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Load(strings.NewReader("NOTMAGIC")); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated payload.
	db := sampleDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot should fail")
	}
	// Length prefixes far past the bytes that follow: an error, not an
	// allocation of the prefix's size.
	for _, c := range hugePrefixSnapshots {
		if _, err := Load(bytes.NewReader(c.in)); err == nil {
			t.Errorf("%s: snapshot accepted", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
	// One truncation per field: the error names the field (and the table,
	// inside one) and is io.ErrUnexpectedEOF.
	table := []any{1, 1, "t", 1, 1, "a", Int}
	at := func(parts ...any) []byte { return snap(append(table[:len(table):len(table)], parts...)...) }
	for _, c := range []struct {
		want string
		in   []byte
	}{
		{"snapshot table count", snap()},
		{"snapshot table name", snap(1)},
		{"snapshot table name", snap(1, 5, "li")},
		{"table t column count", snap(1, 1, "t")},
		{"table t column name", snap(1, 1, "t", 1)},
		{"table t column kind", snap(1, 1, "t", 1, 1, "a")},
		{"table t row count", at()},
		{"table t row length", at(1)},
		{"table t row 0", at(1, 2, "\x02")},
		{"snapshot FK count", at(0)},
		{"snapshot FK", at(0, 1, 1, "t")},
		{"snapshot unique count", at(0, 0)},
		{"snapshot unique", at(0, 0, 1, 1, "t")},
	} {
		_, err := Load(bytes.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%q truncated: err = %v, want %q and io.ErrUnexpectedEOF", c.in, err, c.want)
		}
	}
}

// FuzzLoad feeds Load arbitrary bytes, seeded with a saved database of every
// kind, NULLs and a foreign key, and with hugePrefixSnapshots. No input may
// panic, and on every input Load accepts, Save∘Load is idempotent: saving
// the loaded database, loading those bytes and saving again gives the same
// bytes.
func FuzzLoad(f *testing.F) {
	f.Add(saveBytes(f, allKindsDB(f)))
	for _, c := range hugePrefixSnapshots {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		db, err := Load(bytes.NewReader(in))
		if err != nil {
			return
		}
		once := saveBytes(t, db)
		again, err := Load(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("Load of a saved snapshot: %v", err)
		}
		if twice := saveBytes(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("Save∘Load not idempotent:\n once  %q\n twice %q", once, twice)
		}
	})
}

// saveBytes is db.Save's output.
func saveBytes(tb testing.TB, db *DB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func mustDate(s string) interface{} {
	t, err := timeParse(s)
	if err != nil {
		panic(err)
	}
	return t
}

func timeParse(s string) (time.Time, error) { return time.Parse("2006-01-02", s) }
