package sqlprogress

import (
	"context"
	"fmt"
	"time"

	"sqlprogress/internal/compile"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// EstimatorKind names a progress estimator from the paper.
type EstimatorKind string

// The estimator tool-kit (Sections 4–6 of the paper).
const (
	// Dne is the driver-node estimator of prior work (Definition 1).
	Dne EstimatorKind = "dne"
	// DneDynamic is prior work's refinement: pipeline totals scaled by the
	// observed average work per driver tuple.
	DneDynamic EstimatorKind = "dne-dynamic"
	// DneConstrained clamps dne into the hard bounds interval.
	DneConstrained EstimatorKind = "dne-constrained"
	// Pmax is Curr/LB (Definition 3): an upper bound on true progress with
	// ratio error at most mu (Theorem 5).
	Pmax EstimatorKind = "pmax"
	// Safe is Curr/sqrt(LB*UB) (Definition 5): worst-case optimal
	// (Theorem 6).
	Safe EstimatorKind = "safe"
	// LpSafe is safe against the pessimistic degree-norm upper bound:
	// Curr/sqrt(LB*UBTight), never worse than Safe.
	LpSafe EstimatorKind = "lp-safe"
	// Combiner blends dne/pmax/safe per plan segment, weighting each by its
	// observed error against the shrinking feasible interval.
	Combiner EstimatorKind = "combiner"
	// Trivial always answers 0.5 with the interval (0, 1).
	Trivial EstimatorKind = "trivial"
	// HybridMu plays safe but switches to pmax when the observed mu is
	// small (Section 6.4).
	HybridMu EstimatorKind = "hybrid-mu"
	// HybridVar plays safe but switches to dne when the observed per-tuple
	// work variance is small (Section 6.4).
	HybridVar EstimatorKind = "hybrid-var"
)

// EstimatorKinds lists every estimator kind the engine registers
// (internal/core's estimator table), in its stable report order.
func EstimatorKinds() []EstimatorKind {
	names := core.EstimatorNames()
	kinds := make([]EstimatorKind, len(names))
	for i, n := range names {
		kinds[i] = EstimatorKind(n)
	}
	return kinds
}

// Result holds a completed query's output.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows are the output tuples.
	Rows []schema.Row
	// TotalCalls is total(Q), the query's total work under the GetNext
	// model.
	TotalCalls int64
	// Mu is the paper's mu for this execution: total work per scanned
	// input tuple. pmax's ratio error never exceeds it (Theorem 5).
	Mu float64
}

// Query is a compiled statement ready to run. A Query is single-use: Run or
// RunWithProgress may be called once (operators carry execution state).
type Query struct {
	db   *DB
	root exec.Operator
	used bool
	ctx  *exec.Ctx
}

// ErrCanceled is returned by Run/RunWithProgress when the query was
// terminated via Cancel — the action the paper's progress estimates exist
// to inform.
var ErrCanceled = exec.ErrCanceled

// Cancel requests termination of a running query. Safe to call from the
// progress callback or from another goroutine; the run returns ErrCanceled.
func (q *Query) Cancel() {
	if q.ctx != nil {
		q.ctx.Cancel()
	}
}

// Query compiles a SQL string against the database.
func (db *DB) Query(sql string) (*Query, error) {
	op, err := compile.CompileSQL(db.cat, sql)
	if err != nil {
		return nil, err
	}
	return &Query{db: db, root: op}, nil
}

// QueryPlan wraps a plan built programmatically with the Builder.
func (db *DB) QueryPlan(n plan.Node) *Query {
	return &Query{db: db, root: n.Op}
}

// WrapOperator adapts a directly-constructed operator tree (e.g. a built-in
// TPC-H plan from internal/tpch) into a Query over this database.
func WrapOperator(db *DB, op exec.Operator) *Query {
	return &Query{db: db, root: op}
}

// Exec compiles and runs a statement without progress monitoring.
func (db *DB) Exec(sql string) (*Result, error) {
	q, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	return q.Run()
}

// Plan returns the compiled operator tree (for explain-style inspection).
func (q *Query) Plan() exec.Operator { return q.root }

// Vectorized reports whether every operator in the compiled plan has a
// native batch-at-a-time path. Plans containing LIMIT, merge joins, or naive
// nested loops still execute correctly under the batch engine — those
// operators batch their output while pulling rows — but their subtree pulls
// stay row-grained.
func (q *Query) Vectorized() bool { return exec.NativeBatch(q.root) }

// Explain renders the physical plan with runtime counters.
func (q *Query) Explain() string { return exec.Explain(q.root) }

// ExplainBounds renders the plan with each node's current cardinality
// bounds — the Section 5.1 state the estimators work from.
func (q *Query) ExplainBounds() string { return core.ExplainBounds(q.root) }

// Run executes the query to completion.
func (q *Query) Run() (*Result, error) {
	return q.RunContext(context.Background())
}

// RunContext executes the query to completion, honouring ctx: if the
// context is canceled or its deadline expires mid-run, execution stops
// promptly and RunContext returns ctx.Err(). An explicit Query.Cancel still
// surfaces as ErrCanceled.
func (q *Query) RunContext(ctx context.Context) (*Result, error) {
	if q.used {
		return nil, fmt.Errorf("sqlprogress: query already executed")
	}
	q.used = true
	q.ctx = exec.NewCtx()
	// No per-call hook is installed, so the run pulls in bulk; results and
	// final ledger state are identical to an exact (hooked) run's.
	rows, err := exec.RunBatchContext(ctx, q.ctx, q.root)
	if err != nil {
		return nil, err
	}
	return q.result(rows, q.ctx.Calls(), core.Mu(q.root)), nil
}

func (q *Query) result(rows []schema.Row, total int64, mu float64) *Result {
	cols := make([]string, q.root.Schema().Len())
	for i, c := range q.root.Schema().Columns {
		cols[i] = c.Name
	}
	return &Result{Columns: cols, Rows: rows, TotalCalls: total, Mu: mu}
}

// ProgressOptions configures progress monitoring.
type ProgressOptions struct {
	// Estimator is the headline estimator driving Update.Estimate
	// (default Safe — the worst-case-optimal choice).
	Estimator EstimatorKind
	// Extra estimators additionally evaluated per update.
	Extra []EstimatorKind
	// Every is the sampling period in GetNext calls (default: about 200
	// updates, sized from frame 0's bounds: UB/200, or LB/200 while UB is
	// unbounded). Frame 0 comes first; an update then lands at the first
	// credit of work past each multiple of Every, and the final update
	// where the run stopped (Calls = Result.TotalCalls on completion); the
	// run pulls min(Every, 1024) rows at a time, so a shorter period
	// samples more precisely at the cost of smaller pulls.
	Every int64
}

// NodeCount is one plan node's cumulative runtime counters at an update,
// read from the query's progress ledger (no operator-tree walk): ID is the
// plan's stable dense NodeID, in pre-order; Calls is the node's counted
// GetNext calls (cumulative across rescans), Delivered the rows it handed to
// its parent, Rescans its re-opens after producing output, and Done marks a
// node that reached EOF. The daemon streams the same rows.
type NodeCount = core.NodeCount

// ProgressUpdate is one observation delivered to the callback.
type ProgressUpdate struct {
	// Estimate is the headline estimator's progress estimate in [0, 1].
	Estimate float64
	// Lo and Hi are hard bounds on the true progress at this instant
	// (Curr/UB and min(Curr/LB, 1)); both are 0 on frame 0.
	Lo, Hi float64
	// LB and UB bound total(Q) at this instant; on frame 0 they are the
	// plan's static bounds, the size of the job before it runs.
	LB, UB int64
	// Estimates holds every configured estimator's output by kind.
	Estimates map[EstimatorKind]float64
	// Nodes holds every plan node's runtime counters at this instant, in
	// NodeID order, from the same ledger read as Calls and the bounds: the
	// nodes' Calls sum to Calls. The slice is freshly allocated per update;
	// callers may retain it.
	Nodes []NodeCount
	// Calls is the GetNext count at this instant (Curr).
	Calls int64
	// Pool is a snapshot of the database's buffer-pool counters at this
	// instant; nil while the database has no disk-backed tables. Counters
	// are pool-wide and cumulative across queries.
	Pool *PoolStats
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// ETA extrapolates the remaining wall-clock time from the headline
	// estimate (elapsed * (1-p)/p); zero until the estimate is positive.
	// It inherits the estimate's failure modes — under the paper's Theorem
	// 1 conditions it can be arbitrarily wrong.
	ETA time.Duration
}

// RunWithProgress executes the query, invoking cb with frame 0 before the
// first GetNext call (Calls 0, Lo = Hi = 0, the plan's static LB and UB), at
// each sampling point, and once more where the run stopped — at completion,
// or at the call where an error or a cancellation ended it. The callback
// runs synchronously on the execution path — keep it cheap.
func (q *Query) RunWithProgress(opts ProgressOptions, cb func(ProgressUpdate)) (*Result, error) {
	return q.RunWithProgressContext(context.Background(), opts, cb)
}

// RunWithProgressContext is RunWithProgress honouring ctx like RunContext:
// server deadlines and client disconnects stop the execution promptly, with
// ctx.Err() as the returned error.
func (q *Query) RunWithProgressContext(ctx context.Context, opts ProgressOptions, cb func(ProgressUpdate)) (*Result, error) {
	if q.used {
		return nil, fmt.Errorf("sqlprogress: query already executed")
	}
	q.used = true
	if opts.Estimator == "" {
		opts.Estimator = Safe
	}
	kinds := append([]EstimatorKind{opts.Estimator}, opts.Extra...)
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	ests, err := core.NewEstimators(names...)
	if err != nil {
		return nil, fmt.Errorf("sqlprogress: %w", err)
	}
	if cb == nil {
		cb = func(ProgressUpdate) {}
	}
	mon := core.NewMonitor(q.root, opts.Every, ests...)
	q.ctx = exec.NewCtx()
	start := time.Now()
	mon.OnSample = func(s core.Sample) {
		// Updates are streamed, not kept: the monitor retains only the last
		// sample, which the next one is checked against.
		mon.Samples = append(mon.Samples[:0], s)
		f := mon.Frame(s)
		u := ProgressUpdate{
			Estimate:  s.Estimates[0],
			Lo:        f.Lo,
			Hi:        f.Hi,
			LB:        f.LB,
			UB:        f.UB,
			Estimates: make(map[EstimatorKind]float64, len(f.Estimates)),
			Nodes:     f.Nodes,
			Calls:     f.Calls,
			Elapsed:   time.Since(start),
		}
		for n, v := range f.Estimates {
			u.Estimates[EstimatorKind(n)] = v
		}
		if q.db != nil && q.db.pool != nil {
			st := q.db.pool.Stats()
			u.Pool = &st
		}
		if u.Estimate > 0 {
			u.ETA = time.Duration(float64(u.Elapsed) * (1 - u.Estimate) / u.Estimate)
		}
		cb(u)
	}
	rows, err := mon.RunContext(ctx, q.ctx)
	if err != nil {
		return nil, err
	}
	return q.result(rows, mon.Total(), mon.Mu()), nil
}

// FormatRow renders a result row for display.
func FormatRow(r schema.Row) string {
	out := ""
	for i, v := range r {
		if i > 0 {
			out += " | "
		}
		out += v.String()
	}
	return out
}

// Value re-exports the engine's value type for callers inspecting rows.
type Value = sqlval.Value
