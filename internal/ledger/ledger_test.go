package ledger

import "testing"

func TestSlotCountersAndSnapshot(t *testing.T) {
	l := New(3)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	// A write through the slot pointer is what the ledger reads back, and
	// the read is a copy.
	s := l.Slot(1)
	s.Returned += 2
	s.Delivered++
	s.Done = true
	snap := l.SnapshotAll(nil)
	if got := snap[1]; got != (Snapshot{Returned: 2, Delivered: 1, Done: true}) {
		t.Fatalf("snapshot = %+v", got)
	}
	s.Rescans++
	s.Done = false
	if snap[1].Rescans != 0 || !snap[1].Done {
		t.Fatalf("earlier read changed under a later write: %+v", snap[1])
	}
	if got := l.SnapshotAll(nil)[1]; got.Rescans != 1 || got.Done {
		t.Fatalf("post-rescan snapshot = %+v", got)
	}
	if got := curr(l); got != 2 {
		t.Fatalf("Curr = %d", got)
	}
}

// curr sums one SnapshotAll read's Returned counters, which is how a
// progress capture computes Curr.
func curr(l *Ledger) int64 {
	var total int64
	for _, n := range l.SnapshotAll(nil) {
		total += n.Returned
	}
	return total
}

func TestSnapshotAllReusesCapacity(t *testing.T) {
	l := New(4)
	l.Slot(2).Returned++
	buf := make([]Snapshot, 0, 4)
	out := l.SnapshotAll(buf)
	if len(out) != 4 || out[2].Returned != 1 {
		t.Fatalf("SnapshotAll = %+v", out)
	}
	if &out[0] != &buf[:1][0] {
		t.Error("SnapshotAll did not reuse dst capacity")
	}
}
