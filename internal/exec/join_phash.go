package exec

import (
	"fmt"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
)

// ParallelHashJoin is the partitioned hash join: one plan node that drains
// its blocking build side once, builds the serial join's table (joinTable) on
// W goroutines, each filling its own range of slots, then probes W streaming
// probe partitions on W workers. Each worker probes the read-only table (it
// is frozen before the first probe) and concatenates outputs from its own
// arena; the reader credits the rows it hands out — so a drained join's
// counters and FinalBounds are exactly the serial HashJoin's while build and
// probe both scale with cores.
//
// Output: probe columns followed by build columns (probe-only for semi/anti),
// in nondeterministic cross-partition order unless the plan runs in lockstep.
type ParallelHashJoin struct {
	base
	build Operator
	parts []Operator
	Mode  JoinMode
	// Linear is set by the builder when the join is known to produce at
	// most max(|build|, |probe|) rows (e.g. key–foreign-key joins).
	Linear bool

	table     joinTable // holds the join keys
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
		Mode:  mode,
		table: joinTable{buildKeys: buildKeys, probeKeys: probeKeys},
	}
	j.init(sch)
	return j
}

func (j *ParallelHashJoin) transport() *gather { return &j.g }

// Open implements Operator: drains the build side (on the reader — the
// build subtree is a serial pipeline), builds the hash table on as many
// goroutines as there are workers, then starts the probe workers.
func (j *ParallelHashJoin) Open(ctx *Ctx) error {
	j.reopen()
	var err error
	if j.buildRows, err = drainAll(ctx, j.build, j.buildRows); err != nil {
		return err
	}
	// Building is uncounted work inside the join, and the table is frozen —
	// read-only — before any worker probes, so concurrent probing needs no
	// locks.
	j.table.build(j.buildRows, len(j.parts))
	j.pad = make(schema.Row, j.build.Schema().Len()) // zero Values are NULL
	return j.g.start(len(j.parts), func(w int) (workerStep, error) { return j.probeStep(ctx, w) })
}

// probeStep opens probe partition w and returns the step that pulls its next
// chunk and probes it into the worker's batch. Partition-subtree counts land
// on the same worker — the partition nodes are separate plan nodes with
// their own (single-writer) slots.
func (j *ParallelHashJoin) probeStep(ctx *Ctx, w int) (workerStep, error) {
	part := j.parts[w]
	if err := part.Open(ctx); err != nil {
		return nil, err
	}
	var in Batch
	var arena rowArena
	var matchBuf []schema.Row
	joined := func(probe, build schema.Row) schema.Row { return arena.concat(probe, build) }
	return func(out *Batch) (turn, error) {
		if err := pullChunk(ctx, part, &in); err != nil {
			return turnOver, err
		}
		if in.Len() == 0 {
			return turnLast, nil
		}
		j.table.probe(j.Mode, in.Rows, out, &matchBuf, j.pad, joined)
		return turnOver, nil
	}, nil
}

// NextBatch implements Operator: hands out and credits up to want joined
// rows (see gather.next).
func (j *ParallelHashJoin) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return j.g.next(ctx, &j.base, b, want)
}

// Close implements Operator: stops the workers (quiescing the partitions),
// then closes all children.
func (j *ParallelHashJoin) Close() error {
	j.g.stop()
	j.table.release()
	j.buildRows = nil
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
// arithmetic (hashJoinBounds) applies unchanged.
func (j *ParallelHashJoin) FinalBounds(ch []CardBounds) CardBounds {
	build := ch[0]
	var probe CardBounds
	for _, c := range ch[1:] {
		probe.LB = SatAdd(probe.LB, c.LB)
		probe.UB = SatAdd(probe.UB, c.UB)
	}
	return hashJoinBounds(j.Mode, j.Linear, build, probe)
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
