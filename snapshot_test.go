package sqlprogress

import (
	"bytes"
	"encoding/binary"
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

func TestSnapshotAllValueKinds(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", []Column{
		{Name: "i", Type: Int}, {Name: "f", Type: Float},
		{Name: "s", Type: String}, {Name: "b", Type: Bool}, {Name: "d", Type: Date},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t",
		[]interface{}{int64(-42), 3.25, "héllo", true, mustDate("1999-12-31")},
		[]interface{}{nil, nil, nil, nil, nil},
		[]interface{}{int64(1 << 40), -0.0, "", false, mustDate("1970-01-01")},
	); err != nil {
		t.Fatal(err)
	}
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
	// snap lays out a snapshot: the magic, then each int or Kind as a
	// uvarint and each string as raw bytes.
	snap := func(parts ...any) []byte {
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
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"table name length 2^62", snap(1, 1<<62, "lineitem")},
		{"column count 2^62", snap(1, 1, "t", 1<<62, 1, "a", Int)},
		{"row length 2^62", snap(1, 1, "t", 1, 1, "a", Int, 1, 1<<62, "\x02\x04")},
	} {
		if _, err := Load(bytes.NewReader(c.in)); err == nil {
			t.Errorf("%s: snapshot accepted", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}

func mustDate(s string) interface{} {
	t, err := timeParse(s)
	if err != nil {
		panic(err)
	}
	return t
}

func timeParse(s string) (time.Time, error) { return time.Parse("2006-01-02", s) }
