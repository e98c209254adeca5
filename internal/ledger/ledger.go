package ledger

// NodeID is a plan node's stable dense identifier: its pre-order position
// in the plan tree, assigned once at ledger-binding time. IDs index
// directly into the Ledger's slot array and into core's PlanShape.
type NodeID int32

// None is the NodeID of a node not bound to any ledger.
const None NodeID = -1

// Slot is one plan node's runtime progress state: GetNext counts, rows
// delivered to the parent, rescan (re-open) count, and the EOF flag. The
// owning operator writes it, and the sampler reads it, on the goroutine
// that runs the plan.
type Slot struct {
	// returned counts the node's counted GetNext calls (rows scanned or
	// produced — the paper's unit of work).
	returned int64
	// delivered counts rows actually handed to the parent; it diverges
	// from returned only on scans with pushed predicates.
	delivered int64
	// rescans counts re-opens (nested-loops inners).
	rescans int64
	// done is the EOF flag.
	done bool
}

// Snapshot is a point-in-time copy of one slot.
type Snapshot struct {
	Returned  int64
	Delivered int64
	Rescans   int64
	Done      bool
}

// CountCall records one counted GetNext call.
func (s *Slot) CountCall() { s.returned++ }

// CountCalls records n counted GetNext calls at once — the batch executor's
// bulk credit. A sampler sees the counter jump by n, which is
// indistinguishable from having missed the n-1 intermediate instants of a
// row-at-a-time run; every bound derivation stays sound because counters
// remain monotone and a child's rows are credited before its parent credits
// what it made of them (coretest's credit-read check holds the read after
// every credit to the bounds).
func (s *Slot) CountCalls(n int64) { s.returned += n }

// CountDelivered records one row delivered to the parent.
func (s *Slot) CountDelivered() { s.delivered++ }

// CountDeliveredN records n rows delivered to the parent at once (the batch
// executor's bulk credit, paired with CountCalls).
func (s *Slot) CountDeliveredN(n int64) { s.delivered += n }

// MarkDone sets the EOF flag.
func (s *Slot) MarkDone() { s.done = true }

// MarkRescan records a re-open.
func (s *Slot) MarkRescan() { s.rescans++ }

// ClearDone clears the EOF flag on re-open.
func (s *Slot) ClearDone() { s.done = false }

// Returned returns the counted GetNext calls so far.
func (s *Slot) Returned() int64 { return s.returned }

// Done reports whether the node has reached EOF.
func (s *Slot) Done() bool { return s.done }

// Snapshot copies the slot.
func (s *Slot) Snapshot() Snapshot {
	return Snapshot{Returned: s.returned, Delivered: s.delivered, Rescans: s.rescans, Done: s.done}
}

// Ledger is the flat per-query block of slots, indexed by NodeID.
type Ledger struct {
	slots []Slot
}

// New allocates a ledger with n zeroed slots.
func New(n int) *Ledger {
	return &Ledger{slots: make([]Slot, n)}
}

// Len returns the number of slots.
func (l *Ledger) Len() int { return len(l.slots) }

// Slot returns the slot for id. The pointer is stable for the ledger's
// lifetime, so hot paths may cache it.
func (l *Ledger) Slot(id NodeID) *Slot { return &l.slots[id] }

// SnapshotAll appends a Snapshot per NodeID to dst (reusing its capacity)
// and returns it: one read of the whole plan, which a progress capture folds
// into its bounds and sums into Curr, and the serving layer streams as
// ledger deltas.
func (l *Ledger) SnapshotAll(dst []Snapshot) []Snapshot {
	dst = dst[:0]
	for i := range l.slots {
		dst = append(dst, l.slots[i].Snapshot())
	}
	return dst
}
