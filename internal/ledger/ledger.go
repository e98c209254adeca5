package ledger

import "sync/atomic"

// NodeID is a plan node's stable dense identifier: its pre-order position
// in the plan tree, assigned once at ledger-binding time. IDs index
// directly into the Ledger's slot array and into core's PlanShape.
type NodeID int32

// None is the NodeID of a node not bound to any ledger.
const None NodeID = -1

// Slot is one plan node's runtime progress state: GetNext counts, rows
// delivered to the parent, rescan (re-open) count, and the EOF flag. All
// fields are atomics written by the owning operator, on the goroutine that
// runs the plan, and read by any number of samplers.
type Slot struct {
	// returned counts the node's counted GetNext calls (rows scanned or
	// produced — the paper's unit of work).
	returned atomic.Int64
	// delivered counts rows actually handed to the parent; it diverges
	// from returned only on scans with pushed predicates.
	delivered atomic.Int64
	// rescans counts re-opens (nested-loops inners).
	rescans atomic.Int64
	// done is the EOF flag.
	done atomic.Bool
}

// Snapshot is a consistent-enough point-in-time view of one slot; see the
// package comment for the exactness guarantee.
type Snapshot struct {
	Returned  int64
	Delivered int64
	Rescans   int64
	Done      bool
}

// CountCall records one counted GetNext call.
func (s *Slot) CountCall() { s.returned.Add(1) }

// CountCalls records n counted GetNext calls in one atomic add — the batch
// executor's bulk credit. Samplers observe the counter jump by n at once,
// which is indistinguishable from having missed the n-1 intermediate
// instants of a row-at-a-time run; every bound derivation stays sound
// because counters remain monotone and a child's rows are credited before
// its parent credits what it made of them (coretest's torn-read check folds
// every read a sampler can take between two credits).
func (s *Slot) CountCalls(n int64) { s.returned.Add(n) }

// CountDelivered records one row delivered to the parent.
func (s *Slot) CountDelivered() { s.delivered.Add(1) }

// CountDeliveredN records n rows delivered to the parent in one atomic add
// (the batch executor's bulk credit, paired with CountCalls).
func (s *Slot) CountDeliveredN(n int64) { s.delivered.Add(n) }

// MarkDone sets the EOF flag. Counter increments from the finished run
// happen-before this store (same goroutine, atomic release).
func (s *Slot) MarkDone() { s.done.Store(true) }

// MarkRescan records a re-open. It must be called before ClearDone so a
// racing Snapshot can never observe done with the pre-rescan rescan count.
func (s *Slot) MarkRescan() { s.rescans.Add(1) }

// ClearDone clears the EOF flag on re-open, after MarkRescan.
func (s *Slot) ClearDone() { s.done.Store(false) }

// Returned returns the counted GetNext calls so far.
func (s *Slot) Returned() int64 { return s.returned.Load() }

// Delivered returns the rows delivered to the parent so far.
func (s *Slot) Delivered() int64 { return s.delivered.Load() }

// Rescans returns the re-open count.
func (s *Slot) Rescans() int64 { return s.rescans.Load() }

// Done reports whether the node has reached EOF.
func (s *Slot) Done() bool { return s.done.Load() }

// Snapshot reads the slot under the ordering protocol: done first,
// rescans last.
func (s *Slot) Snapshot() Snapshot {
	done := s.done.Load()
	ret := s.returned.Load()
	del := s.delivered.Load()
	res := s.rescans.Load()
	return Snapshot{Returned: ret, Delivered: del, Rescans: res, Done: done}
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
