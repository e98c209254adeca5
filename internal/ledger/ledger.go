package ledger

// NodeID is a plan node's stable dense identifier: its pre-order position
// in the plan tree, assigned once at ledger-binding time. IDs index
// directly into the Ledger's slot array and into core's PlanShape.
type NodeID int32

// None is the NodeID of a node not bound to any ledger.
const None NodeID = -1

// Snapshot is one plan node's runtime progress state, and a point-in-time
// copy of it: GetNext counts, rows delivered to the parent, rescan
// (re-open) count, and the EOF flag. A ledger slot is a Snapshot that the
// owning operator writes through its fields, and the sampler reads, on the
// goroutine that runs the plan.
type Snapshot struct {
	// Returned counts the node's counted GetNext calls (rows scanned or
	// produced — the paper's unit of work). The batch executor credits it
	// in bulk: a sampler sees the counter jump by n, which is
	// indistinguishable from having missed the n-1 intermediate instants of
	// a row-at-a-time run; every bound derivation stays sound because
	// counters remain monotone and a child's rows are credited before its
	// parent credits what it made of them (coretest's credit-read check
	// holds the read after every credit to the bounds).
	Returned int64
	// Delivered counts rows actually handed to the parent; it diverges
	// from Returned only on scans with pushed predicates.
	Delivered int64
	// Rescans counts re-opens (nested-loops inners).
	Rescans int64
	// Done is the EOF flag.
	Done bool
}

// Ledger is the flat per-query block of slots, indexed by NodeID.
type Ledger struct {
	slots []Snapshot
}

// New allocates a ledger with n zeroed slots.
func New(n int) *Ledger {
	return &Ledger{slots: make([]Snapshot, n)}
}

// Len returns the number of slots.
func (l *Ledger) Len() int { return len(l.slots) }

// Slot returns the slot for id. The pointer is stable for the ledger's
// lifetime, so hot paths may cache it.
func (l *Ledger) Slot(id NodeID) *Snapshot { return &l.slots[id] }

// SnapshotAll appends a Snapshot per NodeID to dst (reusing its capacity)
// and returns it: one read of the whole plan, which a progress capture folds
// into its bounds and sums into Curr, and the serving layer streams as
// ledger deltas.
func (l *Ledger) SnapshotAll(dst []Snapshot) []Snapshot {
	return append(dst[:0], l.slots...)
}
