// Package schema defines relational metadata (columns, schemas) and the
// in-memory row and relation representations shared by the storage,
// execution and statistics layers.
package schema

import (
	"fmt"
	"strings"

	"sqlprogress/internal/sqlval"
)

// Column describes a single attribute of a relation or of an operator's
// output.
type Column struct {
	// Table is the (possibly aliased) qualifier; empty for computed columns.
	Table string
	// Name is the attribute name.
	Name string
	// Type is the declared kind of the column's values.
	Type sqlval.Kind
}

// QualifiedName renders "table.name" (or just "name" when unqualified).
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns describing the rows an operator or
// relation produces.
type Schema struct {
	Columns []Column
}

// New builds a schema from columns.
func New(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ColIndex resolves a column reference against the schema. The table
// qualifier may be empty, in which case the name must be unambiguous.
// It returns -1 when the column is not found, and an error when the
// unqualified name matches more than one column.
func (s *Schema) ColIndex(table, name string) (int, error) {
	found := -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("schema: ambiguous column %q", name)
		}
		found = i
	}
	return found, nil
}

// MustColIndex is ColIndex for programmatically-built plans, panicking on
// failure; plan construction bugs should fail fast rather than mid-query.
func (s *Schema) MustColIndex(table, name string) int {
	i, err := s.ColIndex(table, name)
	if err != nil {
		panic(err)
	}
	if i < 0 {
		panic(fmt.Sprintf("schema: no column %s.%s in (%s)", table, name, s))
	}
	return i
}

// Concat returns a new schema with the columns of s followed by those of t
// (the shape of a join output).
func (s *Schema) Concat(t *Schema) *Schema {
	out := make([]Column, 0, len(s.Columns)+len(t.Columns))
	out = append(out, s.Columns...)
	out = append(out, t.Columns...)
	return &Schema{Columns: out}
}

// WithQualifier returns a copy of the schema with every column's table
// qualifier replaced (used when aliasing a relation in FROM).
func (s *Schema) WithQualifier(q string) *Schema {
	out := make([]Column, len(s.Columns))
	copy(out, s.Columns)
	for i := range out {
		out[i].Table = q
	}
	return &Schema{Columns: out}
}

// String renders the schema as "(t.a BIGINT, b VARCHAR)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QualifiedName())
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a single tuple. A row an operator hands out is never written again:
// it references immutable base-relation storage, a freshly decoded page or
// an operator's arena slab, so it stays valid as long as it is held. Only the
// slice of row headers a batch carries is reused from pull to pull, and
// operators that retain rows (drains, sorts, hash-join build sides) keep the
// headers without copying the values. A retained row pins the storage it
// points into; CloneRow detaches it.
type Row []sqlval.Value

// CloneRow returns a copy of r safe to retain: its values and its strings'
// bytes are its own, so it pins nothing r points into — no arena slab, no
// page's string slab.
func CloneRow(r Row) Row {
	out := make(Row, len(r))
	copy(out, r)
	sqlval.Detach(out)
	return out
}

// ConcatRows concatenates two rows into a freshly allocated row (join
// output).
func ConcatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Relation is an in-memory base table: a schema plus its rows. Relations are
// immutable once loaded into a catalog; the executor never mutates them.
//
// Row storage is slab-allocated: Append copies each row's values into large
// shared chunks and stores a subslice. A million-row relation is then a few
// thousand heap objects instead of a million, which keeps GC mark cost (and
// allocation count during bulk loads) proportional to chunks, not rows.
type Relation struct {
	Name string
	Sch  *Schema
	Rows []Row
	slab []sqlval.Value
}

// relSlabRows is the number of rows each storage slab holds.
const relSlabRows = 512

// NewRelation creates an empty relation with the given name and schema; the
// schema's columns are qualified with the relation name.
func NewRelation(name string, sch *Schema) *Relation {
	return &Relation{Name: name, Sch: sch.WithQualifier(name)}
}

// Append adds a row by copying its values into the relation's storage slabs
// (the caller keeps ownership of the passed slice). It panics when the arity
// does not match the schema, which indicates a generator or loader bug.
func (r *Relation) Append(row Row) {
	w := r.Sch.Len()
	if len(row) != w {
		panic(fmt.Sprintf("relation %s: row arity %d != schema arity %d", r.Name, len(row), w))
	}
	if w == 0 {
		r.Rows = append(r.Rows, Row{})
		return
	}
	if len(r.slab)+w > cap(r.slab) {
		r.slab = make([]sqlval.Value, 0, relSlabRows*w)
	}
	off := len(r.slab)
	r.slab = append(r.slab, row...)
	// Full-capacity subslice: an append to a stored row reallocates instead
	// of overwriting its slab neighbour.
	r.Rows = append(r.Rows, r.slab[off:off+w:off+w])
}

// Cardinality returns the number of rows.
func (r *Relation) Cardinality() int64 { return int64(len(r.Rows)) }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.Sch }
