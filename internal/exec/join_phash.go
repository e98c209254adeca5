package exec

import (
	"fmt"
	"sync"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
)

// ParallelHashJoin is the partitioned hash join: one plan node that drains
// its blocking build side once, partitions the hash table by key hash across
// W sub-tables built concurrently, then probes W streaming probe partitions
// on W workers. Each worker probes only against read-only sub-tables (the
// table is frozen before the first probe), concatenates outputs from its own
// arena, and credits emitted rows to its own ledger sub-slot — so the node's
// aggregate counters and FinalBounds are exactly the serial HashJoin's while
// build and probe both scale with cores.
//
// Output: probe columns followed by build columns (probe-only for semi/anti),
// in nondeterministic cross-partition order unless the plan runs in lockstep.
type ParallelHashJoin struct {
	base
	build                Operator
	parts                []Operator
	buildKeys, probeKeys []expr.Expr
	Mode                 JoinMode
	// Linear is set by the builder when the join is known to produce at
	// most max(|build|, |probe|) rows (e.g. key–foreign-key joins).
	Linear bool

	fallback  []ledger.Slot
	tables    []map[uint64][]schema.Row // partitioned by hash % len(tables)
	buildRows []schema.Row
	pad       schema.Row // NULL padding for left outer

	g gather

	pessimistic
}

// NewParallelHashJoin builds a partitioned hash join over one build input
// and len(parts) same-schema probe partitions (at least one); key arities
// must match.
func NewParallelHashJoin(build Operator, parts []Operator, buildKeys, probeKeys []expr.Expr, mode JoinMode) *ParallelHashJoin {
	if len(parts) == 0 {
		panic("parallelhashjoin: needs at least one probe partition")
	}
	if len(buildKeys) != len(probeKeys) || len(buildKeys) == 0 {
		panic("parallelhashjoin: key arity mismatch or empty keys")
	}
	var sch *schema.Schema
	switch mode {
	case SemiJoin, AntiJoin:
		sch = parts[0].Schema()
	default:
		sch = parts[0].Schema().Concat(build.Schema())
	}
	j := &ParallelHashJoin{
		build: build, parts: parts,
		buildKeys: buildKeys, probeKeys: probeKeys,
		Mode: mode,
	}
	if len(parts) > 1 {
		j.fallback = make([]ledger.Slot, len(parts)-1)
	}
	j.init(sch)
	return j
}

func (j *ParallelHashJoin) workerCount() int             { return len(j.parts) }
func (j *ParallelHashJoin) fallbackSlots() []ledger.Slot { return j.fallback }
func (j *ParallelHashJoin) transport() *gather           { return &j.g }

// Open implements Operator: drains the build side (on the reader — the
// build subtree is a serial pipeline), partitions the hash table across
// workers, then starts the probe workers.
func (j *ParallelHashJoin) Open(ctx *Ctx) error {
	j.reopen()
	reopenWorkerSlots(j)
	if err := j.build.Open(ctx); err != nil {
		return err
	}
	j.buildRows = j.buildRows[:0]
	if ctx.fastPath() {
		var in Batch
		for {
			if err := nextBatch(ctx, j.build, &in); err != nil {
				return err
			}
			if in.Len() == 0 {
				break
			}
			j.buildRows = append(j.buildRows, in.Rows...)
		}
	} else {
		for {
			row, ok, err := j.build.Next(ctx)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			j.buildRows = append(j.buildRows, row)
		}
	}
	j.buildTables()
	j.pad = make(schema.Row, j.build.Schema().Len()) // zero Values are NULL
	return j.g.start(len(j.parts), func(w int) (workerStep, error) { return j.probeStep(ctx, w) })
}

// buildTables constructs W hash sub-tables, sub-table w holding the build
// rows whose key hash lands in partition w (hash % W). Each sub-table is
// built by its own goroutine with HashJoin's exact-capacity two-pass layout.
// Building is uncounted work inside the join (like serial buildTable) and
// the tables are frozen — read-only — before any worker probes, so
// concurrent probing needs no locks. Sub-table contents are deterministic
// regardless of goroutine scheduling.
func (j *ParallelHashJoin) buildTables() {
	w := len(j.parts)
	hs := make([]uint64, 0, len(j.buildRows))
	rows := make([]schema.Row, 0, len(j.buildRows))
	for _, row := range j.buildRows {
		if h, ok := hashKeys(j.buildKeys, row); ok {
			hs = append(hs, h)
			rows = append(rows, row)
		}
	}
	j.tables = make([]map[uint64][]schema.Row, w)
	var wg sync.WaitGroup
	for p := 0; p < w; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			counts := make(map[uint64]int)
			total := 0
			for _, h := range hs {
				if int(h%uint64(w)) == p {
					counts[h]++
					total++
				}
			}
			backing := make([]schema.Row, total)
			t := make(map[uint64][]schema.Row, len(counts))
			off := 0
			for h, c := range counts {
				t[h] = backing[off : off : off+c]
				off += c
			}
			for i, h := range hs {
				if int(h%uint64(w)) == p {
					t[h] = append(t[h], rows[i]) // within capacity: no realloc
				}
			}
			j.tables[p] = t
		}(p)
	}
	wg.Wait()
}

// lookup returns the build rows matching probe's key from the owning
// sub-table, with HashJoin's zero-copy common case (whole bucket key-equal)
// and a caller-owned match buffer for mixed buckets.
func (j *ParallelHashJoin) lookup(probe schema.Row, matchBuf *[]schema.Row) []schema.Row {
	h, ok := hashKeys(j.probeKeys, probe)
	if !ok {
		return nil
	}
	bucket := j.tables[h%uint64(len(j.tables))][h]
	for i, b := range bucket {
		if !keysEqual(j.probeKeys, probe, j.buildKeys, b) {
			mb := append((*matchBuf)[:0], bucket[:i]...)
			for _, rest := range bucket[i+1:] {
				if keysEqual(j.probeKeys, probe, j.buildKeys, rest) {
					mb = append(mb, rest)
				}
			}
			*matchBuf = mb
			return mb
		}
	}
	return bucket
}

// probeBatch probes every row of in, appending join outputs to out; returns
// the number of rows emitted.
func (j *ParallelHashJoin) probeBatch(in *Batch, out *Batch, arena *rowArena, matchBuf *[]schema.Row) int {
	emitted := 0
	for _, probe := range in.Rows {
		found := j.lookup(probe, matchBuf)
		switch j.Mode {
		case SemiJoin:
			if len(found) > 0 {
				out.Append(probe)
				emitted++
			}
		case AntiJoin:
			if len(found) == 0 {
				out.Append(probe)
				emitted++
			}
		case LeftOuterJoin:
			if len(found) == 0 {
				out.Append(arena.concat(probe, j.pad))
				emitted++
			} else {
				for _, m := range found {
					out.Append(arena.concat(probe, m))
					emitted++
				}
			}
		default:
			for _, m := range found {
				out.Append(arena.concat(probe, m))
				emitted++
			}
		}
	}
	return emitted
}

// probeStep opens probe partition w and returns the step that pulls its next
// chunk, probes it and credits the emitted rows to sub-slot w, marking the
// sub-slot done at the partition's EOF. Partition-subtree counts land on the
// same worker — the partition nodes are separate plan nodes with their own
// (single-writer) slots.
func (j *ParallelHashJoin) probeStep(ctx *Ctx, w int) (workerStep, error) {
	part, slot := j.parts[w], workerSlot(j, w)
	if err := part.Open(ctx); err != nil {
		return nil, err
	}
	var in Batch
	var arena rowArena
	var matchBuf []schema.Row
	return func(out *Batch) (turn, error) {
		if err := nextBatch(ctx, part, &in); err != nil {
			return turnOver, err
		}
		if in.Len() == 0 {
			slot.MarkDone()
			return turnLast, nil
		}
		emitted := int64(j.probeBatch(&in, out, &arena, &matchBuf))
		return turnOver, creditWorker(ctx, slot, emitted, emitted)
	}, nil
}

// Next implements Operator: hands out rows from worker batches with no
// additional accounting (workers credited their sub-slots at probe time).
func (j *ParallelHashJoin) Next(ctx *Ctx) (schema.Row, bool, error) {
	if ctx.canceled.Load() {
		return nil, false, ErrCanceled
	}
	return j.g.nextRow()
}

// NextBatch implements BatchOperator: one worker batch per pull.
func (j *ParallelHashJoin) NextBatch(ctx *Ctx, b *Batch) error {
	b.Reset()
	if ctx.canceled.Load() {
		return ErrCanceled
	}
	return j.g.nextRows(b)
}

// Close implements Operator: stops the workers (quiescing the partitions),
// then closes all children.
func (j *ParallelHashJoin) Close() error {
	j.g.stop()
	j.tables, j.buildRows = nil, nil
	return closeAll(j.Children()...)
}

// Children implements Operator: build side first, then the probe partitions.
func (j *ParallelHashJoin) Children() []Operator {
	out := make([]Operator, 0, 1+len(j.parts))
	out = append(out, j.build)
	return append(out, j.parts...)
}

// Name implements Operator.
func (j *ParallelHashJoin) Name() string {
	return fmt.Sprintf("ParallelHashJoin[%s%s,w=%d]", j.Mode, linTag(j.Linear), len(j.parts))
}

// FinalBounds implements Operator: the probe partitions jointly form the
// probe side, so their delivered bounds sum and then HashJoin's per-mode
// arithmetic applies unchanged.
func (j *ParallelHashJoin) FinalBounds(ch []CardBounds) CardBounds {
	build := ch[0]
	var probe CardBounds
	for _, c := range ch[1:] {
		probe.LB = SatAdd(probe.LB, c.LB)
		probe.UB = SatAdd(probe.UB, c.UB)
	}
	switch j.Mode {
	case SemiJoin, AntiJoin:
		return CardBounds{LB: 0, UB: probe.UB}
	case LeftOuterJoin:
		matched := SatMul(build.UB, probe.UB)
		if j.Linear {
			matched = minI64(matched, maxI64(build.UB, probe.UB))
		}
		ub := SatAdd(matched, probe.UB)
		return CardBounds{LB: probe.LB, UB: ub}
	default:
		ub := SatMul(build.UB, probe.UB)
		if j.Linear {
			ub = minI64(ub, maxI64(build.UB, probe.UB))
		}
		return CardBounds{LB: 0, UB: ub}
	}
}

// StreamChildren implements Operator: every probe partition shares this
// pipeline (concurrently).
func (j *ParallelHashJoin) StreamChildren() []int {
	out := make([]int, len(j.parts))
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// BlockingChildren implements Operator: the build side is its own pipeline.
func (j *ParallelHashJoin) BlockingChildren() []int { return []int{0} }
