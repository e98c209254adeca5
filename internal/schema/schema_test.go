package schema

import (
	"testing"

	"sqlprogress/internal/sqlval"
)

func twoColSchema() *Schema {
	return New(
		Column{Table: "t", Name: "a", Type: sqlval.KindInt},
		Column{Table: "t", Name: "b", Type: sqlval.KindString},
	)
}

func TestColIndex(t *testing.T) {
	s := twoColSchema()
	if i, err := s.ColIndex("t", "a"); err != nil || i != 0 {
		t.Errorf("ColIndex(t,a) = %d, %v", i, err)
	}
	if i, err := s.ColIndex("", "b"); err != nil || i != 1 {
		t.Errorf("ColIndex(,b) = %d, %v", i, err)
	}
	if i, err := s.ColIndex("", "missing"); err != nil || i != -1 {
		t.Errorf("ColIndex(,missing) = %d, %v", i, err)
	}
	if i, err := s.ColIndex("u", "a"); err != nil || i != -1 {
		t.Errorf("ColIndex(u,a) = %d, %v, want not found", i, err)
	}
}

func TestColIndexCaseInsensitive(t *testing.T) {
	s := twoColSchema()
	if i, err := s.ColIndex("T", "A"); err != nil || i != 0 {
		t.Errorf("ColIndex(T,A) = %d, %v", i, err)
	}
}

func TestColIndexAmbiguous(t *testing.T) {
	s := New(
		Column{Table: "t", Name: "a", Type: sqlval.KindInt},
		Column{Table: "u", Name: "a", Type: sqlval.KindInt},
	)
	if _, err := s.ColIndex("", "a"); err == nil {
		t.Error("unqualified ambiguous lookup should error")
	}
	if i, err := s.ColIndex("u", "a"); err != nil || i != 1 {
		t.Errorf("qualified lookup = %d, %v", i, err)
	}
}

func TestMustColIndexPanics(t *testing.T) {
	s := twoColSchema()
	if got := s.MustColIndex("t", "b"); got != 1 {
		t.Errorf("MustColIndex = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for missing column")
		}
	}()
	s.MustColIndex("", "zzz")
}

func TestConcatAndQualifier(t *testing.T) {
	s := twoColSchema()
	u := New(Column{Table: "u", Name: "c", Type: sqlval.KindFloat})
	j := s.Concat(u)
	if j.Len() != 3 {
		t.Fatalf("concat len = %d", j.Len())
	}
	if j.Columns[2].QualifiedName() != "u.c" {
		t.Errorf("third column = %s", j.Columns[2].QualifiedName())
	}
	q := s.WithQualifier("x")
	if q.Columns[0].Table != "x" || s.Columns[0].Table != "t" {
		t.Error("WithQualifier must copy, not mutate")
	}
}

func TestSchemaString(t *testing.T) {
	s := twoColSchema()
	want := "(t.a BIGINT, t.b VARCHAR)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{sqlval.Int(1), sqlval.String("x")}
	c := CloneRow(r)
	c[0] = sqlval.Int(2)
	if r[0].AsInt() != 1 {
		t.Error("CloneRow must copy")
	}
	// A decoded row's strings read the encoded bytes in place; its clone
	// must not change when those bytes are overwritten.
	want := Row{sqlval.String("shipmode"), sqlval.Int(7), sqlval.String("é")}
	var enc []byte
	for _, v := range want {
		enc = v.AppendBinary(enc)
	}
	decoded := make(Row, len(want))
	if _, _, err := sqlval.DecodeRow(decoded, enc, len(want), nil); err != nil {
		t.Fatal(err)
	}
	c = CloneRow(decoded)
	for i := range enc {
		enc[i] = 'x'
	}
	for i, v := range want {
		if sqlval.Compare(c[i], v) != 0 || c[i].Kind() != v.Kind() {
			t.Errorf("clone value %d is %s after its source bytes were overwritten, want %s", i, c[i], v)
		}
	}
	j := ConcatRows(Row{sqlval.Int(1)}, Row{sqlval.Int(2), sqlval.Int(3)})
	if len(j) != 3 || j[2].AsInt() != 3 {
		t.Errorf("ConcatRows = %v", j)
	}
}

func TestRelation(t *testing.T) {
	rel := NewRelation("r", New(
		Column{Name: "a", Type: sqlval.KindInt},
		Column{Name: "b", Type: sqlval.KindString},
	))
	if rel.Sch.Columns[0].Table != "r" {
		t.Error("NewRelation should qualify columns with the relation name")
	}
	rel.Append(Row{sqlval.Int(1), sqlval.String("x")})
	rel.Append(Row{sqlval.Int(2), sqlval.String("y")})
	if rel.Cardinality() != 2 {
		t.Errorf("cardinality = %d", rel.Cardinality())
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	rel.Append(Row{sqlval.Int(1)})
}
