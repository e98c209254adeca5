// Package exec implements a Volcano-style iterator executor with per-operator
// GetNext accounting — the paper's model of work (Section 2.2).
//
// Every physical operator implements Operator, whose one pull method is
// NextBatch(ctx, b, want). A GetNext call is one row handed to a parent by a
// want == 1 pull, attributed to the operator that handed it out; EOF probes
// are not counted. A bulk pull of n rows is n GetNext calls credited at once
// (see batch.go). RunBatch is the one way to run a plan, and the run derives
// its pull size: one row at a time exactly when a per-call hook (Ctx.Inject
// or Ctx.OnGetNext) is installed, bulk otherwise. The counted nodes are
// exactly the plan-tree operators: for an index nested loops join the inner
// index lookup is an access path inside the join, not a counted node,
// matching the paper's arithmetic in Example 1.
//
// Rows returned by operators remain valid indefinitely: they are either fresh
// allocations or references into immutable base relations. Operators never
// reuse row buffers.
package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
)

// ErrCanceled is returned by a pull once the execution context has been
// canceled. The paper's motivating use case — watching the progress
// estimate and deciding to terminate — needs a termination path.
var ErrCanceled = errors.New("exec: query canceled")

// Ctx carries per-execution state: the global GetNext counter, the optional
// per-call hooks, and the run's sampling trigger.
//
// A plan runs on one goroutine, and everything it calls back (hooks, the
// trigger) runs there too. Only the call counter and the cancel flag are
// atomic: a watchdog or a status read may read Calls, and Cancel may be
// called, from another goroutine while the plan runs.
type Ctx struct {
	// calls is the total number of GetNext calls performed so far across all
	// operators (the paper's Curr).
	calls atomic.Int64
	// OnGetNext, when non-nil, is invoked after every counted call. It runs
	// on the execution goroutine and must be set before the run starts.
	// Like Inject, it puts the run in the exact regime: every pull is one
	// GetNext (see batch.go).
	OnGetNext func(calls int64)

	// Inject, when non-nil, is invoked on every counted call (before
	// OnGetNext) with the post-increment count, and may return an error to
	// abort the run with that error — the produced row still counts, so the
	// bounds invariants hold at the instant of failure. It runs on the
	// execution goroutine and must be set before the run starts; the fault
	// layer (internal/fault) uses it to create deterministic stalls, operator
	// errors, and exact-call cancellations.
	Inject func(calls int64) error

	// BatchSize overrides DefaultBatchSize for bulk pulls (zero means the
	// default). Set before the run starts; it only affects chunk
	// granularity, never accounting semantics, and a hooked run's pulls are
	// one row whatever it says.
	BatchSize int

	// onDue is the sampling trigger SampleEvery or SampleInterval installs,
	// under one of two due rules: every > 0 is the call-count rule, due the
	// next instant it fires at; otherwise interval is the wall-clock rule,
	// at the earliest time it fires at. Only the run's goroutine credits, so
	// these are plain fields.
	onDue    func(curr int64)
	every    int64
	due      int64
	interval time.Duration
	at       time.Time

	canceled atomic.Bool
}

// NewCtx returns a fresh execution context.
func NewCtx() *Ctx { return &Ctx{} }

// Cancel requests termination. It is safe to call from the OnGetNext
// callback or from another goroutine; the execution stops at the next
// counted GetNext call with ErrCanceled.
func (c *Ctx) Cancel() { c.canceled.Store(true) }

// SampleEvery installs the run's sampling trigger on the call-count rule:
// the credit that moves Curr to or past the next multiple of every calls fn
// once with the new Curr. Unlike OnGetNext it leaves the pull size alone, so
// a sample lands at most one credit past its due instant, and fn runs on the
// run's goroutine, between two credits. It replaces any trigger installed
// before. Set before the run starts.
func (c *Ctx) SampleEvery(every int64, fn func(curr int64)) {
	c.onDue, c.every = fn, max(every, 1)
	c.due = c.every
}

// SampleInterval installs the run's sampling trigger on the wall-clock rule:
// the first credit at least d after the install, or after the trigger last
// fired, calls fn once with the new Curr. The clock is read at each credit
// only while this rule is installed. Like SampleEvery it leaves the pull
// size alone, runs fn on the run's goroutine between two credits, and
// replaces any trigger installed before.
func (c *Ctx) SampleInterval(d time.Duration, fn func(curr int64)) {
	c.onDue, c.every, c.interval = fn, 0, max(d, 1)
	c.at = time.Now().Add(c.interval)
}

// Calls returns the total number of GetNext calls performed so far across
// all operators (the paper's Curr). Safe to call from any goroutine.
func (c *Ctx) Calls() int64 { return c.calls.Load() }

// StatsSnapshot is a plain-value copy of a node's runtime counters: if
// Done && Rescans == 0, Returned and Delivered are the node's exact final
// counts.
type StatsSnapshot = ledger.Snapshot

// CardBounds is a closed interval bounding a node's final output cardinality
// (total rows it will have produced when the query completes).
type CardBounds struct {
	LB, UB int64
}

// Unbounded is the UB used when no finite bound is derivable.
const Unbounded = math.MaxInt64 / 4

// SatMul multiplies with saturation at Unbounded (cardinality products
// overflow quickly on adversarial plans).
func SatMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= Unbounded || b >= Unbounded || a > Unbounded/b {
		return Unbounded
	}
	return a * b
}

// SatAdd adds with saturation at Unbounded.
func SatAdd(a, b int64) int64 {
	if a >= Unbounded || b >= Unbounded || a+b >= Unbounded {
		return Unbounded
	}
	return a + b
}

// Operator is a physical operator node under the iterator model.
//
// A node counts only into its ledger slot, bound by EnsureLedger before
// Open; RunBatch binds first. Readers go through NodeSnapshot or the ledger
// itself.
type Operator interface {
	// Open prepares the operator (and recursively its inputs) for
	// iteration. Blocking operators perform their build work here, issuing
	// counted GetNext calls against their inputs.
	Open(ctx *Ctx) error
	// NextBatch is the one pull: it resets b and fills it with the
	// operator's next rows, an empty batch meaning end of stream (the node
	// has marked its ledger slot done). A pull with want == 1 is one
	// GetNext: exactly one row, or none at EOF. A larger want is a bulk
	// pull: a non-empty batch of any length carries no EOF meaning, and it
	// exceeds want only by the rest of a child chunk the operator already
	// held.
	NextBatch(ctx *Ctx, b *Batch, want int) error
	// Close releases resources. Operators support Close-then-Open rescans.
	Close() error

	// Schema describes the rows the operator produces.
	Schema() *schema.Schema
	// Children returns the operator's counted plan-tree inputs.
	Children() []Operator
	// Name is a short physical-operator name for plan explanation.
	Name() string

	// LedgerID returns the node's dense ledger NodeID assigned by
	// EnsureLedger, or ledger.None before the plan is bound.
	LedgerID() ledger.NodeID
	// FinalBounds returns static bounds on this node's final GetNext-call
	// count given bounds on its children's *delivered* rows (ordered as
	// Children()). The progress layer tightens the result with runtime
	// feedback. For every operator except scans with embedded predicates,
	// the call count equals the delivered-row count.
	FinalBounds(children []CardBounds) CardBounds
	// EstimatedCard is the plan-time cardinality estimate for this node
	// (-1 when the builder provided none).
	EstimatedCard() int64
	// SetEstimatedCard records the plan-time estimate.
	SetEstimatedCard(int64)
	// StreamChildren lists the child indexes executing in the same pipeline
	// as this node (e.g. a hash join's probe side).
	StreamChildren() []int
	// BlockingChildren lists the child indexes fully consumed before this
	// node produces output (e.g. a hash join's build side, a sort's input).
	BlockingChildren() []int

	// progressBase exposes the embedded bookkeeping for ledger binding.
	// All operators live in this package; wrappers elsewhere compose plans
	// from these nodes rather than implementing Operator themselves.
	progressBase() *base
}

// base carries the bookkeeping shared by all operators.
type base struct {
	// slot is the node's ledger slot, led.Slot(id), cached for the hot
	// path. All three are set by EnsureLedger, before Open and
	// before any reader; slot is nil until then.
	slot *ledger.Snapshot
	id   ledger.NodeID
	led  *ledger.Ledger
	sch  *schema.Schema
	est  int64
}

// init prepares the bookkeeping of an unbound node.
func (b *base) init(sch *schema.Schema) {
	b.sch = sch
	b.est = -1
	b.id = ledger.None
}

// LedgerID implements Operator.
func (b *base) LedgerID() ledger.NodeID { return b.id }

func (b *base) progressBase() *base { return b }

// Schema implements Operator.
func (b *base) Schema() *schema.Schema { return b.sch }

// EstimatedCard implements Operator.
func (b *base) EstimatedCard() int64 { return b.est }

// SetEstimatedCard implements Operator.
func (b *base) SetEstimatedCard(v int64) { b.est = v }

// markDone sets the node's EOF flag.
func (b *base) markDone() { b.slot.Done = true }

// reopen resets the node's slot for a rescan: a node re-opened after it
// produced output counts a rescan, so the bounds pass no longer pins it at
// its count, and its EOF flag clears.
func (b *base) reopen() {
	if b.slot.Done || b.slot.Returned > 0 {
		b.slot.Rescans++
	}
	b.slot.Done = false
}

// EnsureLedger binds every node of the plan to one per-query ledger,
// assigning dense pre-order NodeIDs (the shape index used by core's
// PlanShape). It is idempotent: a tree already densely bound to a single
// ledger is returned as-is, so repeated runs of the same plan keep their
// accumulated counters. Otherwise a fresh, zeroed ledger sized to the tree
// is allocated and every node is pointed at its slot. Binding must
// happen-before the plan is opened and before any reader looks at its
// counters: Run and RunBatch bind first, and so does core.ShapeOf.
func EnsureLedger(root Operator) *ledger.Ledger {
	n := 0
	bound := true
	var led *ledger.Ledger
	Walk(root, func(o Operator) {
		b := o.progressBase()
		if n == 0 {
			led = b.led
		}
		if b.led == nil || b.led != led || b.id != ledger.NodeID(n) {
			bound = false
		}
		n++
	})
	if bound && led.Len() == n {
		return led
	}
	led = ledger.New(n)
	id := ledger.NodeID(0)
	Walk(root, func(o Operator) {
		b := o.progressBase()
		b.led, b.id, b.slot = led, id, led.Slot(id)
		id++
	})
	return led
}

// Walk visits op and all descendants in pre-order.
func Walk(op Operator, visit func(Operator)) {
	visit(op)
	for _, c := range op.Children() {
		Walk(c, visit)
	}
}

// NodeSnapshot reads op's runtime counters from its ledger slot; the plan
// must be bound (EnsureLedger).
func NodeSnapshot(op Operator) ledger.Snapshot { return *op.progressBase().slot }

// Explain renders the operator tree with runtime counters, one node per
// line, children indented. A scan that decodes k of its store's n columns
// says so (cols=k/n), and a hash join's build child says build; their Names
// do not, because labels, corpus keys and trace names are built from them. A
// plan that has not run yet is bound first, so it shows zero counters.
func Explain(op Operator) string {
	EnsureLedger(op)
	var b strings.Builder
	var rec func(o Operator, depth int, builds bool)
	rec = func(o Operator, depth int, builds bool) {
		rt := NodeSnapshot(o)
		tags := ""
		if s, ok := o.(*Scan); ok && s.cols != nil {
			tags = fmt.Sprintf(" cols=%d/%d", len(s.cols), s.Src.Schema().Len())
		}
		if builds {
			tags += " build"
		}
		fmt.Fprintf(&b, "%s%s  [rows=%d done=%v est=%d%s]\n",
			strings.Repeat("  ", depth), o.Name(), rt.Returned, rt.Done, o.EstimatedCard(), tags)
		hashJoin := false
		switch o.(type) {
		case *HashJoin: // child 0 is the build side
			hashJoin = true
		}
		for i, c := range o.Children() {
			rec(c, depth+1, hashJoin && i == 0)
		}
	}
	rec(op, 0, false)
	return b.String()
}

// DeliveredBounder is implemented by operators whose delivered-row count
// can be lower than their GetNext count — scans with embedded predicates.
// DeliveredBounds bounds the rows the node will hand to its parent; the
// progress layer uses it (instead of FinalBounds) when propagating child
// cardinalities upward.
type DeliveredBounder interface {
	DeliveredBounds() CardBounds
}

// WeightedLeaf is implemented by leaf operators whose counted GetNext
// calls may include non-row work units — paged scans under a nonzero read
// cost charge extra units per physical page read. MaxReadUnits bounds
// those extra units, letting analyses that need row-based counts (mu's
// scanned-leaf cardinality) conservatively recover them from the ledger's
// unit-inflated totals.
type WeightedLeaf interface {
	MaxReadUnits() int64
}

// EarlyStopper is implemented by operators that may stop pulling from a
// child before that child reaches EOF for data-dependent reasons — a merge
// join stops pulling the surviving side the moment the other side
// exhausts. Such a child (and any node it streams from in turn) may end
// the query short of EOF, so its static *lower* bound on final call count
// is unsound; the bounds pass keeps only runtime feedback (rows already
// returned) as its LB. Upper bounds are unaffected.
type EarlyStopper interface {
	// EarlyStopChildren lists child indexes (as in Children()) the
	// operator may abandon before EOF.
	EarlyStopChildren() []int
}
