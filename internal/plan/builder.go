// Package plan provides a fluent builder for physical plans over a catalog.
// It is how the TPC-H/SkyServer plans, the experiment harness and the SQL
// compiler construct operator trees: the builder resolves columns, builds
// the indexes an access path needs, marks joins linear when the catalog's
// key declarations prove it (Section 5.1's "if we know that any of the join
// operators is linear"), attaches histogram-derived bounds to range scans,
// and fills in plan-time cardinality estimates for dne's driver totals.
package plan

import (
	"fmt"
	"strings"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
	"sqlprogress/internal/stats"
)

// Builder creates plan nodes bound to one catalog.
type Builder struct {
	cat *catalog.Catalog
}

// NewBuilder returns a builder over the catalog.
func NewBuilder(cat *catalog.Catalog) *Builder { return &Builder{cat: cat} }

// Node is one operator with builder context; all composition methods return
// a new Node wrapping the composed operator.
type Node struct {
	b *Builder
	// Op is the physical operator this node wraps.
	Op exec.Operator
	// est is the plan-time row estimate carried for composition.
	est float64
}

// Schema returns the node's output schema.
func (n Node) Schema() *schema.Schema { return n.Op.Schema() }

// Est returns the node's plan-time output-row estimate.
func (n Node) Est() float64 { return n.est }

// PredFn builds a predicate against the node's schema, letting call sites
// reference columns by name without pre-resolving indexes.
type PredFn func(sch *schema.Schema) expr.Expr

func (n Node) finish(op exec.Operator, est float64) Node {
	if est < 1 {
		est = 1
	}
	op.SetEstimatedCard(int64(est))
	return Node{b: n.b, Op: op, est: est}
}

// defaultFilterSelectivity is the classic System-R guess used when no
// histogram applies; the paper's point is that dne survives such errors.
const defaultFilterSelectivity = 1.0 / 3

// Scan builds a full table scan. The table may be an in-memory relation or
// a disk-backed store (pager heap file) — the scan reads through the
// storage seam either way. An optional keep set (see Columns) names the
// columns the statement reads: a scan of a disk-backed table decodes and
// emits only those.
func (b *Builder) Scan(table string, keep ...Columns) Node {
	op := b.storeScan(table, keep)
	return Node{b: b, Op: op, est: float64(op.EstimatedCard())}
}

// storeScan builds the scan operator under Scan and ScanFiltered.
func (b *Builder) storeScan(table string, keep []Columns) *exec.Scan {
	st := b.cat.MustStore(table)
	var cols []int
	// A scan of an in-memory relation hands out the stored rows whole
	// (exec.NewStoreScan), so the set is resolved only for a store that
	// decodes.
	if _, inMemory := st.(*schema.Relation); !inMemory && len(keep) > 0 {
		cols = keep[0].indexes(st.Schema())
	}
	op := exec.NewStoreScan(st, cols)
	op.SetEstimatedCard(st.Cardinality())
	return op
}

// ScanOrdered builds a full table scan with a controlled arrival order.
func (b *Builder) ScanOrdered(table string, order []int32) Node {
	rel := b.cat.MustRelation(table)
	op := exec.NewScanWithOrder(rel, order)
	op.SetEstimatedCard(rel.Cardinality())
	return Node{b: b, Op: op, est: float64(rel.Cardinality())}
}

// ScanFiltered builds a table scan with an embedded predicate (pushed
// selection). sel is the selectivity estimate used for downstream
// cardinality estimates; pass 0 for the default guess. keep is as for Scan;
// the predicate is bound against the scan's own (possibly narrowed) schema,
// so its columns must be in the set.
func (b *Builder) ScanFiltered(table string, sel float64, pred PredFn, keep ...Columns) Node {
	op := b.storeScan(table, keep)
	op.Pred = pred(op.Schema())
	if sel <= 0 || sel > 1 {
		sel = defaultFilterSelectivity
	}
	return Node{b: b, Op: op, est: float64(op.EstimatedCard()) * sel}
}

// ScanFilteredOrdered combines ScanFiltered and ScanOrdered.
func (b *Builder) ScanFilteredOrdered(table string, order []int32, sel float64, pred PredFn) Node {
	rel := b.cat.MustRelation(table)
	op := exec.NewScanWithOrder(rel, order)
	op.Pred = pred(rel.Schema())
	op.SetEstimatedCard(rel.Cardinality())
	if sel <= 0 || sel > 1 {
		sel = defaultFilterSelectivity
	}
	return Node{b: b, Op: op, est: float64(rel.Cardinality()) * sel}
}

// RangeScan builds an ordered-index range scan over [lo, hi] (nil = open),
// with histogram-derived static bounds attached when statistics exist.
func (b *Builder) RangeScan(table, column string, lo, hi *sqlval.Value, loIncl, hiIncl bool) Node {
	ix, err := b.cat.BuildOrderedIndex(table, column)
	if err != nil {
		panic(err)
	}
	op := exec.NewRangeScan(ix, lo, hi, loIncl, hiIncl)
	est := float64(ix.Rel.Cardinality())
	if ts := b.cat.Stats(table); ts != nil {
		ci, _ := ix.Rel.Sch.ColIndex("", column)
		if h := ts.Histogram(ci); h != nil {
			re := h.EstimateRange(lo, hi, loIncl, hiIncl)
			op.SetStaticBounds(exec.CardBounds{LB: re.LB, UB: re.UB})
			est = re.Est
		}
	}
	op.SetEstimatedCard(int64(est))
	return Node{b: b, Op: op, est: est}
}

// Filter wraps the node in an explicit selection operator (a counted sigma
// node, as in the paper's Figure 2). sel estimates its selectivity.
func (n Node) Filter(sel float64, pred PredFn) Node {
	if sel <= 0 || sel > 1 {
		sel = defaultFilterSelectivity
	}
	op := exec.NewFilter(n.Op, pred(n.Schema()))
	return n.finish(op, n.est*sel)
}

// Project wraps the node in a projection.
func (n Node) Project(exprs []expr.Expr, names []string, kinds []sqlval.Kind) Node {
	op := exec.NewProject(n.Op, exprs, names, kinds)
	return n.finish(op, n.est)
}

// Top limits output to k rows. A sort directly below need only keep k.
func (n Node) Top(k int64) Node {
	if s, ok := n.Op.(*exec.Sort); ok && k > 0 {
		s.SetLimit(k)
	}
	op := exec.NewTop(n.Op, k)
	est := n.est
	if float64(k) < est {
		est = float64(k)
	}
	return n.finish(op, est)
}

// cols resolves a comma-free column list against a schema.
func cols(sch *schema.Schema, names ...string) []expr.Expr {
	out := make([]expr.Expr, len(names))
	for i, name := range names {
		out[i] = expr.NewCol(sch, "", name)
	}
	return out
}

// columnBase returns the base table and column a schema column refers to,
// for linearity detection.
func columnBase(sch *schema.Schema, name string) (table, col string) {
	i, err := sch.ColIndex("", name)
	if err != nil || i < 0 {
		return "", name
	}
	return sch.Columns[i].Table, sch.Columns[i].Name
}

// sideDegreeNorms resolves the degree-sequence ℓp norms for one side of an
// equi-join, for the pessimistic output bound (stats.JoinOutputUB). The
// bound is sound only if the side delivers each base-table row at most once
// — filtering shrinks degrees, but a join beneath can duplicate them — so
// the side's operator must be a base-relation scan. Pass op == nil for a
// side that is the base relation by construction (an INL join's inner).
// Norms come from the column's histogram (stale-widened via DegreeNorms); a
// declared-unique column needs no synopsis, its degrees are uniform.
func (b *Builder) sideDegreeNorms(op exec.Operator, sch *schema.Schema, col string) (stats.DegreeSeq, bool) {
	if op != nil {
		switch op.(type) {
		case *exec.Scan, *exec.RangeScan:
		default:
			return stats.DegreeSeq{}, false
		}
	}
	table, column := columnBase(sch, col)
	if table == "" {
		return stats.DegreeSeq{}, false
	}
	if ts := b.cat.Stats(table); ts != nil {
		// Histograms are indexed by position in the stored table, which a
		// narrowed scan's schema no longer gives.
		if st, err := b.cat.Store(table); err == nil {
			if ci, err := st.Schema().ColIndex("", column); err == nil && ci >= 0 {
				if d, ok := ts.Histogram(ci).DegreeNorms(); ok {
					return d, true
				}
			}
		}
	}
	if b.cat.IsUnique(table, column) {
		return stats.UniformDegrees(b.cat.Cardinality(table)), true
	}
	return stats.DegreeSeq{}, false
}

// setLpJoinBound attaches the ℓp-norm pessimistic output bound to an inner
// equi-join when both sides' degree norms are derivable and sound. Only
// inner joins: semi/anti are already capped by the probe side, and outer
// joins add unmatched padding the norm product does not cover. The bound
// lands in the tight track (UBTight) only — the classic UB is untouched, so
// safe and lp-safe stay comparable on the same run.
func (b *Builder) setLpJoinBound(op interface{ SetPessimisticUB(int64) }, mode exec.JoinMode,
	aOp exec.Operator, aSch *schema.Schema, aCol string,
	bOp exec.Operator, bSch *schema.Schema, bCol string) {
	if mode != exec.InnerJoin {
		return
	}
	ad, ok := b.sideDegreeNorms(aOp, aSch, aCol)
	if !ok {
		return
	}
	bd, ok := b.sideDegreeNorms(bOp, bSch, bCol)
	if !ok {
		return
	}
	op.SetPessimisticUB(stats.JoinOutputUB(ad, bd))
}

// joinLinear checks whether an equi-join on the named columns is provably
// linear from the catalog's unique-key declarations.
func (b *Builder) joinLinear(aSch *schema.Schema, aCol string, bSch *schema.Schema, bCol string) bool {
	at, ac := columnBase(aSch, aCol)
	bt, bc := columnBase(bSch, bCol)
	if at == "" || bt == "" {
		return false
	}
	return b.cat.JoinIsLinear(at, ac, bt, bc)
}

// Columns is a set of lower-cased column names: the names read above a node.
// Passed to HashJoin, HashJoinMulti or HashJoinProbedBy, the join emits
// only the child columns whose name is in it; passed to Scan or
// ScanFiltered, a scan of a disk-backed table decodes only the table's
// columns whose name is in it. A nil set keeps every column; an empty one
// keeps none (COUNT(*) reads no column, and rows of no columns still count).
type Columns map[string]bool

// indexes returns the positions of sch's columns named in the set, in
// schema order, or nil (every column) when none is dropped.
func (c Columns) indexes(sch *schema.Schema) []int {
	if c == nil {
		return nil
	}
	idx := make([]int, 0, sch.Len())
	for i, col := range sch.Columns {
		if c[strings.ToLower(col.Name)] {
			idx = append(idx, i)
		}
	}
	if len(idx) == sch.Len() {
		return nil
	}
	return idx
}

// HashJoin joins n (probe side) with build on probeCol = buildCol. Linearity
// is detected from catalog key declarations. An optional keep set narrows
// the output of an inner or left-outer join (see Columns); without one the
// join emits every probe column followed by every build column.
func (n Node) HashJoin(build Node, probeCol, buildCol string, mode exec.JoinMode, keep ...Columns) Node {
	return n.HashJoinMulti(build, []string{probeCol}, []string{buildCol}, mode, keep...)
}

// HashJoinMulti is HashJoin with composite keys.
func (n Node) HashJoinMulti(build Node, probeCols, buildCols []string, mode exec.JoinMode, keep ...Columns) Node {
	return hashJoin(n, build, probeCols, buildCols, mode, false, keep)
}

// HashJoinProbedBy is the inner join n.HashJoinMulti(probe, ...) with the
// table on the other side: it builds on n and streams probe, and still emits
// n's columns before probe's, so only which child blocks differs.
func (n Node) HashJoinProbedBy(probe Node, buildCols, probeCols []string, keep ...Columns) Node {
	return hashJoin(probe, n, probeCols, buildCols, exec.InnerJoin, true, keep)
}

// hashJoin builds the hash join of probe with build; buildFirst lays the
// output out build columns first.
func hashJoin(probe, build Node, probeCols, buildCols []string, mode exec.JoinMode, buildFirst bool, keep []Columns) Node {
	op := exec.NewHashJoin(build.Op, probe.Op,
		cols(build.Schema(), buildCols...), cols(probe.Schema(), probeCols...), mode)
	if buildFirst {
		op.SetBuildFirst()
	}
	op.Linear = len(probeCols) > 0 &&
		probe.b.joinLinear(probe.Schema(), probeCols[0], build.Schema(), buildCols[0])
	// A composite-key join emits no more than the join on its first column
	// alone (composite degrees refine single-column degrees), so the
	// single-column norm bound stays sound.
	if len(probeCols) > 0 {
		probe.b.setLpJoinBound(op, mode, probe.Op, probe.Schema(), probeCols[0], build.Op, build.Schema(), buildCols[0])
	}
	if len(keep) > 0 && (mode == exec.InnerJoin || mode == exec.LeftOuterJoin) {
		op.SetOutput(keep[0].indexes(probe.Schema()), keep[0].indexes(build.Schema()))
	}
	return probe.finish(op, joinEstimate(mode, probe.est, build.est, op.Linear))
}

// INLJoin joins n (outer) against innerTable, seeking innerCol with
// outerCol's value — the paper's nested-iteration access path.
func (n Node) INLJoin(innerTable, innerCol, outerCol string, mode exec.JoinMode) Node {
	inner := n.b.cat.MustRelation(innerTable)
	ci := inner.Sch.MustColIndex("", innerCol)
	op := exec.NewINLJoin(n.Op, inner, ci, expr.NewCol(n.Schema(), "", outerCol), mode)
	op.Linear = n.b.joinLinear(n.Schema(), outerCol, inner.Schema(), innerCol)
	// The inner side is the base relation by construction (nil op skips the
	// scan-type guard).
	n.b.setLpJoinBound(op, mode, n.Op, n.Schema(), outerCol, nil, inner.Schema(), innerCol)
	innerEst := float64(inner.Cardinality())
	// When the outer key is unique (a key-FK join driven from the key side),
	// every inner row is emitted at most once, so inner rows with a non-NULL
	// key are a hard output ceiling. The inner column's histogram counts them
	// (stale-widened when the synopsis is degraded), giving a sound static
	// upper bound. If a foreign key innerCol -> outerCol is also declared and
	// the driver provably delivers every parent row (an unfiltered whole-table
	// scan), referential integrity turns the same count into a lower bound:
	// every non-NULL inner row must find its unique match. Fresh statistics
	// then pin the join's output exactly; degraded ones widen the interval by
	// the staleness budget instead of abandoning it.
	if ot, oc := columnBase(n.Schema(), outerCol); mode == exec.InnerJoin && ot != "" && n.b.cat.IsUnique(ot, oc) {
		if ts := n.b.cat.Stats(innerTable); ts != nil {
			if h := ts.Histogram(ci); h != nil && len(h.Buckets) > 0 {
				re := h.EstimateRange(nil, nil, true, true)
				sb := exec.CardBounds{LB: 0, UB: re.UB}
				if sc, ok := n.Op.(*exec.Scan); ok && sc.Pred == nil &&
					n.b.cat.HasForeignKey(innerTable, innerCol, ot, oc) {
					sb.LB = re.LB
				}
				op.SetStaticBounds(sb)
				innerEst = re.Est
			}
		}
	}
	return n.finish(op, joinEstimate(mode, n.est, innerEst, op.Linear))
}

// Cross builds a cross product via nested loops (the inner side is
// re-scanned per outer row).
func (b *Builder) Cross(outer, inner Node) Node {
	op := exec.NewNLJoin(outer.Op, inner.Op, nil)
	return outer.finish(op, outer.est*inner.est)
}

// MergeJoin joins two sorted inputs on leftCol = rightCol.
func (n Node) MergeJoin(right Node, leftCol, rightCol string) Node {
	op := exec.NewMergeJoin(n.Op, right.Op,
		cols(n.Schema(), leftCol), cols(right.Schema(), rightCol))
	op.Linear = n.b.joinLinear(n.Schema(), leftCol, right.Schema(), rightCol)
	return n.finish(op, joinEstimate(exec.InnerJoin, n.est, right.est, op.Linear))
}

// joinEstimate is the builder's coarse cardinality model: FK joins pass
// through the bigger side scaled by the smaller side's filtered fraction;
// everything else uses a fixed reduction. The paper's Section 7 stresses
// progress estimation must tolerate the errors such models make.
func joinEstimate(mode exec.JoinMode, probe, other float64, linear bool) float64 {
	switch mode {
	case exec.SemiJoin, exec.AntiJoin:
		return probe / 2
	case exec.LeftOuterJoin:
		if probe > other {
			return probe
		}
		return other
	default:
		if linear {
			if probe > other {
				return probe
			}
			return other
		}
		return probe * other / 100
	}
}

// Sort sorts by the named columns ascending.
func (n Node) Sort(by ...string) Node {
	keys := make([]exec.SortKey, len(by))
	for i, c := range by {
		keys[i] = exec.SortKey{Expr: expr.NewCol(n.Schema(), "", c)}
	}
	return n.finish(exec.NewSort(n.Op, keys), n.est)
}

// SortKeys sorts by explicit keys (for descending or computed orders).
func (n Node) SortKeys(keys ...exec.SortKey) Node {
	return n.finish(exec.NewSort(n.Op, keys), n.est)
}

// AggSpec names one aggregate for the builder.
type AggSpec struct {
	Kind expr.AggKind
	Col  string // empty for COUNT(*)
	As   string
}

func (n Node) buildAggs(specs []AggSpec) []expr.Agg {
	aggs := make([]expr.Agg, len(specs))
	for i, s := range specs {
		a := expr.Agg{Kind: s.Kind, Name: s.As}
		if s.Kind != expr.AggCountStar {
			a.Arg = expr.NewCol(n.Schema(), "", s.Col)
		}
		if a.Name == "" {
			a.Name = fmt.Sprintf("agg%d", i)
		}
		aggs[i] = a
	}
	return aggs
}

func (n Node) groupMeta(by []string) ([]expr.Expr, []string, []sqlval.Kind) {
	gb := make([]expr.Expr, len(by))
	names := make([]string, len(by))
	kinds := make([]sqlval.Kind, len(by))
	for i, c := range by {
		idx := n.Schema().MustColIndex("", c)
		gb[i] = expr.Col{Index: idx, DisplayName: c}
		names[i] = n.Schema().Columns[idx].Name
		kinds[i] = n.Schema().Columns[idx].Type
	}
	return gb, names, kinds
}

// HashAgg groups by the named columns with the given aggregates. groupsEst
// estimates the number of groups (0 = a tenth of the input).
func (n Node) HashAgg(groupsEst float64, by []string, specs ...AggSpec) Node {
	gb, names, kinds := n.groupMeta(by)
	op := exec.NewHashAgg(n.Op, gb, names, kinds, n.buildAggs(specs))
	if groupsEst <= 0 {
		groupsEst = n.est / 10
	}
	return n.finish(op, groupsEst)
}

// StreamAgg groups an input already sorted by the named columns.
func (n Node) StreamAgg(groupsEst float64, by []string, specs ...AggSpec) Node {
	gb, names, kinds := n.groupMeta(by)
	op := exec.NewStreamAgg(n.Op, gb, names, kinds, n.buildAggs(specs))
	if groupsEst <= 0 {
		groupsEst = n.est / 10
	}
	return n.finish(op, groupsEst)
}

// ScalarAgg computes aggregates over the whole input (one output row).
func (n Node) ScalarAgg(specs ...AggSpec) Node {
	op := exec.NewStreamAgg(n.Op, nil, nil, nil, n.buildAggs(specs))
	return n.finish(op, 1)
}

// Wrap attaches a directly-constructed operator (typically one consuming
// n.Op) to the builder context, with an output-row estimate (<= 0 inherits
// n's estimate). It is the escape hatch for compilers that build operators
// the fluent methods do not cover.
func (n Node) Wrap(op exec.Operator, est float64) Node {
	if est <= 0 {
		est = n.est
	}
	return n.finish(op, est)
}
