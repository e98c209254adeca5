package ledger

import "testing"

func TestEnsureWorkersAllocatesAndNeverShrinks(t *testing.T) {
	l := New(3)
	if w := l.Workers(1); w != 1 {
		t.Fatalf("fresh node Workers = %d, want 1", w)
	}
	l.EnsureWorkers(1, 4)
	if w := l.Workers(1); w != 4 {
		t.Fatalf("Workers after EnsureWorkers(4) = %d, want 4", w)
	}
	// Idempotent, and a smaller request never drops allocated sub-slots.
	l.EnsureWorkers(1, 2)
	if w := l.Workers(1); w != 4 {
		t.Fatalf("Workers after EnsureWorkers(2) = %d, want 4", w)
	}
	// Other nodes stay serial.
	if w := l.Workers(0); w != 1 {
		t.Fatalf("untouched node Workers = %d, want 1", w)
	}
	// workers <= 1 allocates nothing.
	l2 := New(2)
	l2.EnsureWorkers(0, 1)
	if l2.sub != nil {
		t.Fatal("EnsureWorkers(1) allocated sub-slot storage")
	}
}

func TestWorkerSlotZeroIsPrimary(t *testing.T) {
	l := New(2)
	l.EnsureWorkers(0, 3)
	if l.WorkerSlot(0, 0) != l.Slot(0) {
		t.Fatal("WorkerSlot(id, 0) is not the primary slot")
	}
	if l.WorkerSlot(0, 1) == l.WorkerSlot(0, 2) {
		t.Fatal("distinct workers share a sub-slot")
	}
}

func TestViewAggregatesSubSlots(t *testing.T) {
	l := New(2)
	l.EnsureWorkers(0, 3)
	for w := 0; w < 3; w++ {
		s := l.WorkerSlot(0, w)
		s.CountCalls(int64(10 * (w + 1)))
		s.CountDeliveredN(int64(w + 1))
	}
	v := l.View(0)
	if got := v.Returned(); got != 60 {
		t.Fatalf("Returned = %d, want 60", got)
	}
	if got := v.Delivered(); got != 6 {
		t.Fatalf("Delivered = %d, want 6", got)
	}
	// Done only when every sub-slot is done.
	l.WorkerSlot(0, 0).MarkDone()
	l.WorkerSlot(0, 2).MarkDone()
	if v.Done() {
		t.Fatal("Done with one worker still running")
	}
	snap := v.Snapshot()
	if snap.Done || snap.Returned != 60 || snap.Delivered != 6 {
		t.Fatalf("mid-run snapshot %+v", snap)
	}
	l.WorkerSlot(0, 1).MarkDone()
	if !v.Done() {
		t.Fatal("not Done with every worker done")
	}
	snap = v.Snapshot()
	if !snap.Done || snap.Rescans != 0 {
		t.Fatalf("final snapshot %+v, want done and exact", snap)
	}

	// Rescans sum across the group: a rescan of any sub-slot voids exactness.
	l.WorkerSlot(0, 2).MarkRescan()
	l.WorkerSlot(0, 2).ClearDone()
	snap = v.Snapshot()
	if snap.Done || snap.Rescans != 1 {
		t.Fatalf("post-rescan snapshot %+v, want not-done with 1 rescan", snap)
	}
}

func TestViewSerialNodeDegeneratesToSlot(t *testing.T) {
	l := New(1)
	s := l.Slot(0)
	s.CountCalls(7)
	s.CountDeliveredN(3)
	s.MarkDone()
	if l.View(0).Snapshot() != s.Snapshot() {
		t.Fatalf("serial View snapshot %+v != slot snapshot %+v", l.View(0).Snapshot(), s.Snapshot())
	}
}

func TestTotalReturnedIncludesSubSlots(t *testing.T) {
	l := New(2)
	l.Slot(0).CountCalls(5)
	l.Slot(1).CountCalls(10)
	l.EnsureWorkers(1, 2)
	l.WorkerSlot(1, 1).CountCalls(20)
	if got := curr(l); got != 35 {
		t.Fatalf("total returned = %d, want 35", got)
	}
}

func TestSnapshotAllAggregatesPerNode(t *testing.T) {
	l := New(3)
	l.Slot(0).CountCalls(1)
	l.EnsureWorkers(2, 4)
	for w := 0; w < 4; w++ {
		l.WorkerSlot(2, w).CountCalls(int64(w + 1))
		l.WorkerSlot(2, w).MarkDone()
	}
	snaps := l.SnapshotAll(nil)
	if len(snaps) != 3 {
		t.Fatalf("SnapshotAll returned %d entries, want Len()=3", len(snaps))
	}
	if snaps[0].Returned != 1 {
		t.Fatalf("node 0 snapshot %+v", snaps[0])
	}
	if snaps[2].Returned != 10 || !snaps[2].Done {
		t.Fatalf("node 2 aggregate snapshot %+v, want Returned=10 done", snaps[2])
	}
}
