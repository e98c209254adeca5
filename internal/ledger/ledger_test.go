package ledger

import (
	"sync"
	"testing"
	"unsafe"
)

func TestSlotSizeIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Slot{}); got != 64 {
		t.Fatalf("Slot size = %d, want 64", got)
	}
}

func TestSlotCountersAndSnapshot(t *testing.T) {
	l := New(3)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	s := l.Slot(1)
	s.CountCall()
	s.CountCall()
	s.CountDelivered()
	s.MarkDone()
	snap := s.Snapshot()
	if snap.Returned != 2 || snap.Delivered != 1 || snap.Rescans != 0 || !snap.Done {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Re-open: rescans before clearing done.
	s.MarkRescan()
	s.ClearDone()
	snap = s.Snapshot()
	if snap.Rescans != 1 || snap.Done {
		t.Fatalf("post-rescan snapshot = %+v", snap)
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
	l.Slot(2).CountCall()
	buf := make([]Snapshot, 0, 4)
	out := l.SnapshotAll(buf)
	if len(out) != 4 || out[2].Returned != 1 {
		t.Fatalf("SnapshotAll = %+v", out)
	}
	if &out[0] != &buf[:1][0] {
		t.Error("SnapshotAll did not reuse dst capacity")
	}
}

// TestConcurrentDisjointWriters: N writers on disjoint slots, one reader
// summing; the race detector must stay quiet and the final total must be
// exact.
func TestConcurrentDisjointWriters(t *testing.T) {
	const workers, per = 8, 10_000
	l := New(workers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = curr(l)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := l.Slot(NodeID(w))
			for i := 0; i < per; i++ {
				s.CountCall()
			}
			s.MarkDone()
		}(w)
	}
	wg.Wait()
	close(stop)
	if got := curr(l); got != workers*per {
		t.Fatalf("Curr = %d, want %d", got, workers*per)
	}
}
