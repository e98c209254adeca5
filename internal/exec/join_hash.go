package exec

import (
	"fmt"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// JoinMode selects the join semantics shared by the join operators.
type JoinMode uint8

// Join modes. Semi and Anti implement EXISTS / NOT EXISTS semantics
// (a NULL probe key finds no match, so Anti emits it).
const (
	InnerJoin JoinMode = iota
	SemiJoin
	AntiJoin
	LeftOuterJoin
)

func (m JoinMode) String() string {
	return [...]string{"inner", "semi", "anti", "leftouter"}[m]
}

// HashJoin is the classic build/probe hash join. The build side is fully
// consumed during Open (a blocking input, forming its own pipeline in the
// paper's decomposition); the probe side streams. This is the paper's
// canonical "scan-based" join (Section 5.4): both inputs are scanned exactly
// once, so total work is tightly bounded.
//
// Output: probe columns followed by build columns, or build columns followed
// by probe columns after SetBuildFirst (probe-only for semi/anti), all of them
// unless SetOutput narrowed the list. For LeftOuterJoin the probe side is
// preserved.
type HashJoin struct {
	base
	stream       // over the probe side
	build, probe Operator
	Mode         JoinMode
	// Linear is set by the builder when the join is known to produce at
	// most max(|build|, |probe|) rows (e.g. key–foreign-key joins).
	Linear bool
	// outProbe/outBuild list the child columns an inner or left-outer join
	// emits, in output order; nil means every column of that side.
	outProbe, outBuild []int
	// buildFirst lays the output out build side first (SetBuildFirst).
	buildFirst bool

	table     joinTable    // holds the join keys
	buildRows []schema.Row // build side, drained during Open
	matchBuf  []schema.Row // reused lookup result buffer
	pad       schema.Row   // NULL padding for left outer
	arena     rowArena     // chunked backing storage for joined output rows

	pessimistic
}

// NewHashJoin builds a hash join; buildKeys/probeKeys are evaluated against
// the respective child rows and must have equal arity.
func NewHashJoin(build, probe Operator, buildKeys, probeKeys []expr.Expr, mode JoinMode) *HashJoin {
	if len(buildKeys) != len(probeKeys) || len(buildKeys) == 0 {
		panic("hashjoin: key arity mismatch or empty keys")
	}
	var sch *schema.Schema
	switch mode {
	case SemiJoin, AntiJoin:
		sch = probe.Schema()
	default:
		sch = probe.Schema().Concat(build.Schema())
	}
	j := &HashJoin{
		build: build, probe: probe,
		Mode:  mode,
		table: joinTable{buildKeys: buildKeys, probeKeys: probeKeys},
	}
	j.init(sch)
	return j
}

// SetOutput narrows an inner or left-outer join's output to the given probe
// and build columns (indexes into the child schemas), the sides in the
// layout's order; nil keeps the whole side. Row width is invisible to the
// paper's model of work — every node's GetNext counts, and so every bound and
// estimate, are unchanged — it only shrinks the bytes copied per output row.
// Call it before the join is composed into a parent: the schema changes.
func (j *HashJoin) SetOutput(probeCols, buildCols []int) {
	if j.Mode == SemiJoin || j.Mode == AntiJoin {
		panic("hashjoin: semi/anti joins emit the probe row as is")
	}
	j.outProbe, j.outBuild = probeCols, buildCols
	j.layout()
}

// SetBuildFirst lays an inner join's output out as the build columns
// followed by the probe columns: a planner that builds on the side it placed
// first keeps that side's columns first, so nothing above the join sees which
// side builds. Like SetOutput, call it before the join is composed into a
// parent.
func (j *HashJoin) SetBuildFirst() {
	if j.Mode != InnerJoin {
		panic("hashjoin: only an inner join lays its build side first")
	}
	j.buildFirst = true
	j.layout()
}

// layout sets the output schema from the kept columns and the side order.
func (j *HashJoin) layout() {
	probe, build := pickColumns(j.probe.Schema(), j.outProbe), pickColumns(j.build.Schema(), j.outBuild)
	if j.buildFirst {
		j.sch = build.Concat(probe)
	} else {
		j.sch = probe.Concat(build)
	}
}

func pickColumns(sch *schema.Schema, idx []int) *schema.Schema {
	if idx == nil {
		return sch
	}
	cols := make([]schema.Column, len(idx))
	for i, c := range idx {
		cols[i] = sch.Columns[c]
	}
	return schema.New(cols...)
}

// joined carves the output row for one (probe, build) pair — build is the
// NULL pad on a left-outer miss — from the arena, in the layout's side order.
func (j *HashJoin) joined(probe, build schema.Row) schema.Row {
	out := j.arena.row(j.sch.Len())
	if j.buildFirst {
		n := pick(out, build, j.outBuild)
		pick(out[n:], probe, j.outProbe)
	} else {
		n := pick(out, probe, j.outProbe)
		pick(out[n:], build, j.outBuild)
	}
	return out
}

// pick copies src's columns idx (nil: all of them) to the front of dst and
// returns how many it wrote.
func pick(dst, src schema.Row, idx []int) int {
	if idx == nil {
		return copy(dst, src)
	}
	for i, c := range idx {
		dst[i] = src[c]
	}
	return len(idx)
}

func hashKeys(keys []expr.Expr, row schema.Row) (uint64, bool) {
	var h uint64 = 1469598103934665603
	for _, k := range keys {
		v := k.Eval(row)
		if v.IsNull() {
			return 0, false
		}
		h = h*1099511628211 ^ sqlval.Hash(v)
	}
	return h, true
}

func keysEqual(aKeys []expr.Expr, a schema.Row, bKeys []expr.Expr, b schema.Row) bool {
	for i := range aKeys {
		av, bv := aKeys[i].Eval(a), bKeys[i].Eval(b)
		if av.IsNull() || bv.IsNull() || sqlval.Compare(av, bv) != 0 {
			return false
		}
	}
	return true
}

// Open implements Operator: drains the build side into the hash table.
func (j *HashJoin) Open(ctx *Ctx) error {
	j.reopen()
	j.reset()
	var err error
	if j.buildRows, err = drainAll(ctx, j.build, j.buildRows); err != nil {
		return err
	}
	j.table.build(j.buildRows, 1)
	j.pad = make(schema.Row, j.build.Schema().Len()) // zero Values are NULL
	return j.probe.Open(ctx)
}

// NextBatch implements Operator: probes whole probe chunks against the
// prebuilt table (stream), concatenated outputs carved from the arena.
// Output batches are variable-length — a high-fanout chunk may exceed want —
// and at want == 1 a probe row's further matches wait for the next pulls.
func (j *HashJoin) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return j.pull(ctx, &j.base, j.probe, b, want, func(in []schema.Row, out *Batch) int {
		return j.table.probe(j.Mode, in, out, &j.matchBuf, j.pad, j.joined)
	})
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table.release()
	j.buildRows, j.matchBuf = nil, nil
	err1 := j.build.Close()
	err2 := j.probe.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Children implements Operator: build side first.
func (j *HashJoin) Children() []Operator { return []Operator{j.build, j.probe} }

// Name implements Operator.
func (j *HashJoin) Name() string {
	return fmt.Sprintf("HashJoin[%s%s]", j.Mode, linTag(j.Linear))
}

func linTag(l bool) string {
	if l {
		return ",linear"
	}
	return ""
}

// FinalBounds implements Operator.
func (j *HashJoin) FinalBounds(ch []CardBounds) CardBounds {
	return hashJoinBounds(j.Mode, j.Linear, ch[0], ch[1])
}

// hashJoinBounds is the final-call bound of a hash join in the given mode
// over its build and (whole) probe side.
func hashJoinBounds(mode JoinMode, linear bool, build, probe CardBounds) CardBounds {
	if mode == SemiJoin || mode == AntiJoin {
		return CardBounds{LB: 0, UB: probe.UB}
	}
	ub := SatMul(build.UB, probe.UB)
	if linear {
		ub = minI64(ub, maxI64(build.UB, probe.UB))
	}
	if mode == LeftOuterJoin {
		// Matched output obeys the inner-join bound; every unmatched probe
		// row additionally emits one padded row, so the total can exceed
		// max(inputs) even for key joins — add the probe side.
		return CardBounds{LB: probe.LB, UB: SatAdd(ub, probe.UB)}
	}
	return CardBounds{LB: 0, UB: ub}
}

// StreamChildren implements Operator: the probe side shares this pipeline.
func (j *HashJoin) StreamChildren() []int { return []int{1} }

// BlockingChildren implements Operator: the build side is its own pipeline.
func (j *HashJoin) BlockingChildren() []int { return []int{0} }

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
