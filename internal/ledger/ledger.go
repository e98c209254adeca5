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
// fields are atomics written by the owning operator (exactly one writer
// goroutine per slot, even under parallel operators, whose workers each
// write a sub-slot of their own) and read by any number of samplers.
//
// The struct is padded to 64 bytes so adjacent slots written by different
// workers never share a cache line.
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
	_    [64 - 3*8 - 4]byte
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
//
// A node whose operator runs W workers owns W sub-slots: the primary slot
// in the flat array plus W-1 extra padded slots allocated by EnsureWorkers
// at binding time. Each worker writes only its own sub-slot (the
// single-writer discipline, now per sub-slot), and every aggregate read —
// View, SnapshotAll — sums the group under the snapshot
// ordering protocol, so readers see one logical counter set per NodeID.
type Ledger struct {
	slots []Slot
	// sub holds per-node extra worker sub-slots (index w-1 is worker w's
	// slot; worker 0 writes the primary slot). nil until EnsureWorkers is
	// first called, so fully serial plans pay nothing.
	sub [][]Slot
}

// New allocates a ledger with n zeroed slots.
func New(n int) *Ledger {
	return &Ledger{slots: make([]Slot, n)}
}

// Len returns the number of slots.
func (l *Ledger) Len() int { return len(l.slots) }

// Slot returns the primary slot for id. The pointer is stable for the
// ledger's lifetime, so hot paths may cache it. For nodes with worker
// sub-slots this is worker 0's slot; aggregate readers want View instead.
func (l *Ledger) Slot(id NodeID) *Slot { return &l.slots[id] }

// EnsureWorkers allocates workers-1 extra sub-slots behind id (worker 0
// writes the primary slot). It must be called while the ledger is still
// private to the binding goroutine — EnsureLedger does so before execution
// or samplers can observe the ledger — and is idempotent for the same
// worker count.
func (l *Ledger) EnsureWorkers(id NodeID, workers int) {
	if workers <= 1 {
		return
	}
	if l.sub == nil {
		l.sub = make([][]Slot, len(l.slots))
	}
	if len(l.sub[id]) >= workers-1 {
		return
	}
	l.sub[id] = make([]Slot, workers-1)
}

// Workers returns the number of sub-slots behind id (1 for serial nodes).
func (l *Ledger) Workers(id NodeID) int {
	if l.sub == nil {
		return 1
	}
	return 1 + len(l.sub[id])
}

// WorkerSlot returns worker w's sub-slot for id (w 0 is the primary slot).
// Like Slot, the pointer is stable and single-writer.
func (l *Ledger) WorkerSlot(id NodeID, w int) *Slot {
	if w == 0 {
		return &l.slots[id]
	}
	return &l.sub[id][w-1]
}

// View returns the aggregating reader over id's sub-slot group. For serial
// nodes it degenerates to the primary slot with zero overhead beyond one
// branch, so every sample-path read can go through it unconditionally.
func (l *Ledger) View(id NodeID) View {
	v := View{primary: &l.slots[id]}
	if l.sub != nil {
		v.extra = l.sub[id]
	}
	return v
}

// View reads one node's sub-slot group as a single logical counter set.
// The zero View is invalid; obtain one from Ledger.View.
type View struct {
	primary *Slot
	extra   []Slot
}

// Returned sums the group's counted GetNext calls.
func (v View) Returned() int64 {
	total := v.primary.returned.Load()
	for i := range v.extra {
		total += v.extra[i].returned.Load()
	}
	return total
}

// Delivered sums the group's delivered rows.
func (v View) Delivered() int64 {
	total := v.primary.delivered.Load()
	for i := range v.extra {
		total += v.extra[i].delivered.Load()
	}
	return total
}

// Rescans sums the group's re-open counts.
func (v View) Rescans() int64 {
	total := v.primary.rescans.Load()
	for i := range v.extra {
		total += v.extra[i].rescans.Load()
	}
	return total
}

// Done reports whether every sub-slot of the group has reached EOF — the
// node is done only when all of its workers are.
func (v View) Done() bool {
	if !v.primary.done.Load() {
		return false
	}
	for i := range v.extra {
		if !v.extra[i].done.Load() {
			return false
		}
	}
	return true
}

// Snapshot reads the group under the ordering protocol, extended to
// sub-slots: every done flag is loaded first, counter sums next, rescan
// sums last. Per sub-slot the single-slot ordering (done before counters
// before rescans) is preserved, so the exactness property lifts to the
// aggregate: if the snapshot shows Done && Rescans == 0, each sub-slot's
// counters were final when read and the sums are the node's exact totals.
func (v View) Snapshot() Snapshot {
	if len(v.extra) == 0 {
		return v.primary.Snapshot()
	}
	done := v.primary.done.Load()
	for i := range v.extra {
		if !v.extra[i].done.Load() {
			done = false
		}
	}
	ret := v.primary.returned.Load()
	del := v.primary.delivered.Load()
	for i := range v.extra {
		ret += v.extra[i].returned.Load()
		del += v.extra[i].delivered.Load()
	}
	res := v.primary.rescans.Load()
	for i := range v.extra {
		res += v.extra[i].rescans.Load()
	}
	return Snapshot{Returned: ret, Delivered: del, Rescans: res, Done: done}
}

// SnapshotAll appends a Snapshot per NodeID to dst (reusing its capacity)
// and returns it: one read of the whole plan, which a progress capture folds
// into its bounds and sums into Curr, and the serving layer streams as
// ledger deltas. Nodes with worker sub-slots are aggregated, so the
// result always has Len entries and consumers (progressd's Progress.Nodes)
// are oblivious to how many workers produced each node's counters.
func (l *Ledger) SnapshotAll(dst []Snapshot) []Snapshot {
	dst = dst[:0]
	if l.sub == nil {
		for i := range l.slots {
			dst = append(dst, l.slots[i].Snapshot())
		}
		return dst
	}
	for i := range l.slots {
		dst = append(dst, l.View(NodeID(i)).Snapshot())
	}
	return dst
}
