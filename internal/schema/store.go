package schema

import (
	"fmt"

	"sqlprogress/internal/sqlval"
)

// This file defines the storage interface a table scan reads through. The
// executor's Scan consumes a Store rather than a concrete relation, so the
// same leaf operator runs over the in-memory Relation and over disk-backed
// stores (internal/pager's PagedRelation). The interface lives here — the
// bottom of the dependency graph — because both storage implementations and
// the executor need it, and the executor already depends on schema.

// Store is a named, immutable bag of rows a Scan can iterate. A cursor
// visits every stored row once, in storage order.
type Store interface {
	// StoreName is the table name (a method, not a field, so in-memory and
	// paged implementations can both satisfy the interface).
	StoreName() string
	// Schema describes the stored rows.
	Schema() *Schema
	// Cardinality is the exact stored row count (known from the catalog /
	// file header, the paper's anchor for tight leaf bounds).
	Cardinality() int64
	// OpenCursor opens a cursor over the whole store. cols lists the
	// positions in Schema() of the columns the caller reads, strictly
	// ascending: the cursor's rows hold exactly those values, in that order
	// (none at all for an empty list). A nil cols means every column. A
	// store that decodes its rows materialises only what is asked for; which
	// columns a cursor carries never changes which rows it visits or what
	// they cost.
	OpenCursor(cols []int) (Cursor, error)
}

// CheckColumns reports whether cols is a valid column list for OpenCursor
// over a store with this schema: strictly ascending positions inside it.
func (s *Schema) CheckColumns(cols []int) error {
	for i, c := range cols {
		if c < 0 || c >= len(s.Columns) || (i > 0 && c <= cols[i-1]) {
			return fmt.Errorf("schema: column list %v is not strictly ascending inside 0..%d", cols, len(s.Columns))
		}
	}
	return nil
}

// Cursor iterates one store. Cursors are single-goroutine; rows they
// return remain valid indefinitely (they reference immutable in-memory
// storage or are freshly decoded copies of on-disk pages).
type Cursor interface {
	// NextChunk returns up to want rows in one step, plus the extra weighted
	// GetNext units the storage charged for producing them — zero for
	// in-memory rows and buffer-pool hits, the store's read cost for each
	// page physically read (see ReadCoster). An empty chunk means the store
	// is exhausted. The returned slice is only valid until the next cursor
	// call; the rows it holds are valid indefinitely.
	NextChunk(want int) (rows []Row, units int64, err error)
	// Close releases cursor resources (pinned pages).
	Close() error
}

// ReadCoster is implemented by stores whose scans charge extra GetNext
// units for physical I/O: a row served from a page that had to be read
// from disk costs 1 + ReadCost units instead of 1. MaxReadUnits bounds the
// extra units a full scan can accrue (every page read physically); the
// lower bound is always zero — a fully warm buffer pool serves the whole
// store without physical reads.
type ReadCoster interface {
	MaxReadUnits() int64
}

// StoreName implements Store.
func (r *Relation) StoreName() string { return r.Name }

// OpenCursor implements Store.
func (r *Relation) OpenCursor(cols []int) (Cursor, error) {
	if err := r.Sch.CheckColumns(cols); err != nil {
		return nil, err
	}
	return &memCursor{rows: r.Rows, cols: cols}, nil
}

// memCursor iterates an in-memory relation. With no column
// list, NextChunk hands out subslices of the relation's own row-header
// slice, so the bulk scan path copies nothing; with one, every row handed
// out is a fresh copy of the listed values — there is nothing to decode, so
// narrowing costs a copy here where it saves one on disk.
type memCursor struct {
	rows  []Row
	pos   int
	cols  []int
	chunk []Row // reused NextChunk result when cols != nil
}

// project copies the listed columns of the stored rows into one fresh slab.
func (c *memCursor) project(dst, src []Row) []Row {
	k := len(c.cols)
	slab := make([]sqlval.Value, len(src)*k)
	for i, row := range src {
		out := slab[i*k : (i+1)*k : (i+1)*k]
		for j, col := range c.cols {
			out[j] = row[col]
		}
		dst = append(dst, out)
	}
	return dst
}

// NextChunk implements Cursor.
func (c *memCursor) NextChunk(want int) ([]Row, int64, error) {
	n := min(len(c.rows)-c.pos, want)
	if n <= 0 {
		return nil, 0, nil
	}
	out := c.rows[c.pos : c.pos+n]
	if c.cols != nil {
		c.chunk = c.project(c.chunk[:0], out)
		out = c.chunk
	}
	c.pos += n
	return out, 0, nil
}

// Close implements Cursor.
func (c *memCursor) Close() error { return nil }
