package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sqlprogress"
	"sqlprogress/internal/catalog"
	"sqlprogress/internal/pager"
)

// refDB is the in-process twin of the daemon's database: the same generated
// data behind the same storage, used as the correctness reference and as the
// target of the traced replay.
type refDB struct {
	db   *sqlprogress.DB
	cat  *catalog.Catalog
	pool *pager.Pool // nil when memory-resident
	io   *ioCounters // nil when memory-resident
	dir  string      // heap-file directory, removed by close
	// heapBytes is the total size of the spilled heap files.
	heapBytes int64
}

// ioCounters accumulates what the timing backends saw.
type ioCounters struct {
	reads  atomic.Int64
	readNs atomic.Int64
	// each, when non-nil, receives every read's duration in nanoseconds. It
	// is set only around single-threaded traced passes.
	each func(ns int64)
}

// timedBackend is the pager.Backend wrapper that times every physical page
// read; it is installed with pager.NewPagedRelationBackend, the same seam
// the fault layer uses.
type timedBackend struct {
	pager.Backend
	c *ioCounters
}

func (b timedBackend) ReadPage(page uint32, buf []byte) error {
	t0 := time.Now()
	err := b.Backend.ReadPage(page, buf)
	ns := int64(time.Since(t0))
	b.c.reads.Add(1)
	b.c.readNs.Add(ns)
	if b.c.each != nil {
		b.c.each(ns)
	}
	return err
}

// openRef generates the workload's database and, for a paged workload,
// spills every table under scratch exactly as progressd -spill does
// (db.SpillToDisk), except that each heap file is read through a
// timedBackend.
func openRef(w *workload, scratch string) (*refDB, error) {
	db := sqlprogress.OpenTPCH(dataSF, dataZ, dataSeed)
	ref := &refDB{db: db, cat: db.Catalog()}
	if w.poolFrames == 0 {
		return ref, nil
	}
	dir, err := os.MkdirTemp(scratch, "ref-heap-")
	if err != nil {
		return nil, err
	}
	ref.dir = dir
	ref.pool = pager.NewPool(w.poolFrames)
	ref.io = &ioCounters{}
	cat := ref.cat
	// Registering a store drops the table's key declarations with the
	// relation; snapshot them all first and re-declare after the last spill.
	fks := append([]catalog.ForeignKey(nil), cat.ForeignKeys()...)
	type unique struct{ table, column string }
	var uniques []unique
	tables := cat.TableNames()
	for _, name := range tables {
		for _, col := range cat.MustRelation(name).Schema().Columns {
			if cat.IsUnique(name, col.Name) {
				uniques = append(uniques, unique{name, col.Name})
			}
		}
	}
	for _, name := range tables {
		path := filepath.Join(dir, name+".heap")
		if err := pager.WriteRelation(path, cat.MustRelation(name)); err != nil {
			return nil, fmt.Errorf("spill %s: %w", name, err)
		}
		hf, err := pager.OpenHeapFile(path)
		if err != nil {
			return nil, fmt.Errorf("spill %s: %w", name, err)
		}
		if st, err := os.Stat(path); err == nil {
			ref.heapBytes += st.Size()
		}
		pr := pager.NewPagedRelationBackend(hf, ref.pool, timedBackend{hf.Backend(), ref.io})
		pr.SetReadCost(w.readCost)
		cat.AddStore(pr)
	}
	for _, u := range uniques {
		cat.DeclareUnique(u.table, u.column)
	}
	for _, fk := range fks {
		cat.DeclareForeignKey(fk)
	}
	return ref, nil
}

// poolStats is the buffer pool's counters, zero when memory-resident.
func (r *refDB) poolStats() pager.Stats {
	if r.pool == nil {
		return pager.Stats{}
	}
	return r.pool.Stats()
}

func (r *refDB) close() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// expect runs every distinct query of qs once and returns what the daemon
// must report for it. With a per-page read cost the total call count
// depends on how many of the touched pages were resident, so the reference
// brackets it: all pages resident (lo) to all pages read (hi).
func (r *refDB) expect(w *workload, qs []query) (map[string]expectation, error) {
	out := make(map[string]expectation)
	for _, q := range qs {
		if _, ok := out[q.SQL]; ok {
			continue
		}
		before := r.poolStats()
		res, err := r.db.Exec(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("reference: %s: %w", q.SQL, err)
		}
		e := expectation{Rows: len(res.Rows), CallsLo: res.TotalCalls, CallsHi: res.TotalCalls}
		after := r.poolStats()
		e.CallsLo -= w.readCost * (after.Misses - before.Misses)
		e.CallsHi += w.readCost * (after.Hits - before.Hits)
		out[q.SQL] = e
	}
	return out, nil
}
