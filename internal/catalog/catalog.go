// Package catalog ties the storage layer together: a Catalog holds named
// relations, their secondary indexes, per-table statistics, and declared
// key/foreign-key constraints. The constraints are what let the planner mark
// joins as linear (output bounded by the larger input), which the paper's
// bounds maintenance exploits (Section 5.1).
package catalog

import (
	"fmt"
	"sort"
	"strings"

	"sqlprogress/internal/index"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/stats"
)

// ForeignKey declares that every value of ChildTable.ChildColumn appears at
// most once in ParentTable.ParentColumn (the parent column is unique). A join
// between the two on these columns is a key-foreign-key join and hence
// linear.
type ForeignKey struct {
	ChildTable, ChildColumn   string
	ParentTable, ParentColumn string
}

// Catalog is a database instance: in-memory relations plus disk-backed
// stores (see store.go for the storage binding).
type Catalog struct {
	relations map[string]*schema.Relation
	stores    map[string]schema.Store              // disk-backed tables (no in-memory relation)
	orderIdx  map[string]map[string]*index.Ordered // table -> column -> index
	tblStats  map[string]*stats.TableStats
	uniqueCol map[string]map[string]bool // table -> column -> declared unique
	fks       []ForeignKey
}

// New returns an empty catalog whose statistics are produced by
// stats.HistogramGenerator with its defaults.
func New() *Catalog {
	return &Catalog{
		relations: make(map[string]*schema.Relation),
		stores:    make(map[string]schema.Store),
		orderIdx:  make(map[string]map[string]*index.Ordered),
		tblStats:  make(map[string]*stats.TableStats),
		uniqueCol: make(map[string]map[string]bool),
	}
}

func key(s string) string { return strings.ToLower(s) }

// AddRelation registers a relation and builds its statistics. It replaces
// any previous relation with the same name (indexes and constraints on the
// old relation are dropped).
func (c *Catalog) AddRelation(rel *schema.Relation) {
	k := key(rel.Name)
	c.relations[k] = rel
	delete(c.stores, k)
	delete(c.orderIdx, k)
	c.tblStats[k] = stats.HistogramGenerator{}.Generate(rel)
}

// Relation returns the named relation, or an error listing known tables.
func (c *Catalog) Relation(name string) (*schema.Relation, error) {
	rel, ok := c.relations[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q (have %s)", name, strings.Join(c.TableNames(), ", "))
	}
	return rel, nil
}

// MustRelation is Relation that panics; for programmatic plan construction.
func (c *Catalog) MustRelation(name string) *schema.Relation {
	rel, err := c.Relation(name)
	if err != nil {
		panic(err)
	}
	return rel
}

// TableNames lists registered tables (in-memory and disk-backed) in sorted
// order.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.relations)+len(c.stores))
	for _, rel := range c.relations {
		names = append(names, rel.Name)
	}
	for _, st := range c.stores {
		names = append(names, st.StoreName())
	}
	sort.Strings(names)
	return names
}

// BuildOrderedIndex builds (or returns the cached) ordered index on
// table.column.
func (c *Catalog) BuildOrderedIndex(table, column string) (*index.Ordered, error) {
	rel, err := c.Relation(table)
	if err != nil {
		return nil, err
	}
	tk, ck := key(table), key(column)
	if ix, ok := c.orderIdx[tk][ck]; ok {
		return ix, nil
	}
	col, err := rel.Sch.ColIndex("", column)
	if err != nil {
		return nil, err
	}
	if col < 0 {
		return nil, fmt.Errorf("catalog: table %s has no column %q", table, column)
	}
	ix := index.BuildOrdered(fmt.Sprintf("ox_%s_%s", table, column), rel, col)
	if c.orderIdx[tk] == nil {
		c.orderIdx[tk] = make(map[string]*index.Ordered)
	}
	c.orderIdx[tk][ck] = ix
	return ix, nil
}

// Stats returns the statistics for a table (nil when unknown).
func (c *Catalog) Stats(table string) *stats.TableStats {
	return c.tblStats[key(table)]
}

// Cardinality returns the exact row count from the catalog (the paper notes
// base-table cardinalities are "accurately available from the database
// catalogs"); -1 when the table is unknown.
func (c *Catalog) Cardinality(table string) int64 {
	st, err := c.Store(table)
	if err != nil {
		return -1
	}
	return st.Cardinality()
}

// DeclareUnique marks table.column as unique (a key).
func (c *Catalog) DeclareUnique(table, column string) {
	tk := key(table)
	if c.uniqueCol[tk] == nil {
		c.uniqueCol[tk] = make(map[string]bool)
	}
	c.uniqueCol[tk][key(column)] = true
}

// IsUnique reports whether table.column was declared unique.
func (c *Catalog) IsUnique(table, column string) bool {
	return c.uniqueCol[key(table)][key(column)]
}

// DeclareForeignKey registers a key–foreign-key relationship and implies the
// parent column is unique.
func (c *Catalog) DeclareForeignKey(fk ForeignKey) {
	c.fks = append(c.fks, fk)
	c.DeclareUnique(fk.ParentTable, fk.ParentColumn)
}

// JoinIsLinear reports whether an equi-join between a.ac and b.bc is known
// to be linear (output at most the larger input): true when either side of
// the join predicate is a declared unique column, which covers key–foreign
// key joins in both directions.
func (c *Catalog) JoinIsLinear(aTable, aCol, bTable, bCol string) bool {
	return c.IsUnique(aTable, aCol) || c.IsUnique(bTable, bCol)
}

// ForeignKeys returns the declared foreign keys.
func (c *Catalog) ForeignKeys() []ForeignKey { return c.fks }

// HasForeignKey reports whether child.childCol -> parent.parentCol was
// declared as a foreign key (referential integrity: every non-NULL child
// value has exactly one parent match).
func (c *Catalog) HasForeignKey(childTable, childColumn, parentTable, parentColumn string) bool {
	for _, fk := range c.fks {
		if key(fk.ChildTable) == key(childTable) && key(fk.ChildColumn) == key(childColumn) &&
			key(fk.ParentTable) == key(parentTable) && key(fk.ParentColumn) == key(parentColumn) {
			return true
		}
	}
	return false
}

// DropTable removes a relation, its indexes, statistics, and any key or
// foreign-key declarations referring to it. It reports whether the table
// existed.
func (c *Catalog) DropTable(name string) bool {
	k := key(name)
	_, isRel := c.relations[k]
	_, isStore := c.stores[k]
	if !isRel && !isStore {
		return false
	}
	delete(c.relations, k)
	delete(c.stores, k)
	delete(c.orderIdx, k)
	delete(c.tblStats, k)
	delete(c.uniqueCol, k)
	kept := c.fks[:0]
	for _, fk := range c.fks {
		if key(fk.ChildTable) != k && key(fk.ParentTable) != k {
			kept = append(kept, fk)
		}
	}
	c.fks = kept
	return true
}

// SetStats replaces the stored synopsis for a table. It is how the
// evaluation matrix installs degraded (stale or absent) statistics: the
// relation's rows stay as they are, only the planner-visible synopsis
// changes. Passing nil removes the synopsis entirely.
func (c *Catalog) SetStats(table string, ts *stats.TableStats) {
	k := key(table)
	if ts == nil {
		delete(c.tblStats, k)
		return
	}
	c.tblStats[k] = ts
}
