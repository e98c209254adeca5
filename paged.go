package sqlprogress

import (
	"fmt"
	"path/filepath"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/pager"
)

// PoolStats is a point-in-time snapshot of the buffer pool's cumulative
// counters: hits, misses (physical reads), evictions, pins, and bytes
// read. HitRatio() and String() summarize it.
type PoolStats = pager.Stats

// SpillToDisk writes the named in-memory tables (every table when none
// are named) to heap files under dir — 8 KiB slotted pages plus a page
// directory — and re-registers each as a disk-backed table read through
// the database's shared buffer pool, created on first use with the given
// frame capacity (pager.DefaultPoolFrames when frames <= 0; later calls
// keep the existing pool). Plans built afterwards scan these tables
// page-at-a-time: every page touched is a pool access and every pool miss
// a physical read, which is the paper's I/O-bound estimation scenario.
//
// Key and foreign-key declarations on spilled tables survive (so
// linear-join detection is unchanged), but secondary indexes and permuted
// scans remain in-memory-only facilities: plans that need them must keep
// their tables unspilled.
func (db *DB) SpillToDisk(dir string, frames int, tables ...string) error {
	if db.pool == nil {
		db.pool = pager.NewPool(frames)
	}
	if len(tables) == 0 {
		for _, name := range db.cat.TableNames() {
			if _, err := db.cat.Relation(name); err == nil {
				tables = append(tables, name)
			}
		}
	}
	// Re-registering a table as a store drops its declarations with the
	// relation; snapshot everything first and re-declare when all spills
	// are done (an FK between two spilled tables would otherwise be lost).
	type unique struct{ table, column string }
	var uniques []unique
	spilled := make(map[string]bool, len(tables))
	for _, name := range tables {
		rel, err := db.cat.Relation(name)
		if err != nil {
			return fmt.Errorf("sqlprogress: spill %s: %w", name, err)
		}
		spilled[name] = true
		for _, col := range rel.Schema().Columns {
			if db.cat.IsUnique(name, col.Name) {
				uniques = append(uniques, unique{name, col.Name})
			}
		}
	}
	var fks []catalog.ForeignKey
	for _, fk := range db.cat.ForeignKeys() {
		if spilled[fk.ChildTable] || spilled[fk.ParentTable] {
			fks = append(fks, fk)
		}
	}
	for _, name := range tables {
		rel := db.cat.MustRelation(name)
		path := filepath.Join(dir, name+".heap")
		if err := pager.WriteRelation(path, rel); err != nil {
			return fmt.Errorf("sqlprogress: spill %s: %w", name, err)
		}
		if _, err := db.cat.AttachHeapFile(path, db.pool); err != nil {
			return fmt.Errorf("sqlprogress: spill %s: %w", name, err)
		}
	}
	for _, u := range uniques {
		db.cat.DeclareUnique(u.table, u.column)
	}
	for _, fk := range fks {
		db.cat.DeclareForeignKey(fk)
	}
	return nil
}

// SetReadCost sets the extra GetNext units charged per physical page read
// when scanning the named disk-backed table (0, the default, restores
// pure row accounting). With a non-zero cost, Curr reflects I/O work:
// rows on cold pages cost 1+w units, rows served from the pool cost 1,
// and the scan's final-call bounds widen by at most w units per page —
// the regime in which the paper's GetNext-uniform estimators degrade.
func (db *DB) SetReadCost(table string, units int64) error {
	pr := db.cat.PagedRelation(table)
	if pr == nil {
		return fmt.Errorf("sqlprogress: table %q is not disk-backed (SpillToDisk first)", table)
	}
	pr.SetReadCost(units)
	return nil
}

// PoolStats returns a snapshot of the shared buffer pool's counters. The
// second result is false while the database has no disk-backed tables.
func (db *DB) PoolStats() (PoolStats, bool) {
	if db.pool == nil {
		return PoolStats{}, false
	}
	return db.pool.Stats(), true
}

// BufferPool exposes the shared buffer pool for advanced use (like
// Catalog()); the session service reads its counters into every progress
// event by itself. Nil until SpillToDisk creates it.
func (db *DB) BufferPool() *pager.Pool { return db.pool }
