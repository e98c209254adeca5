package exec

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
)

// TestParallelScanMatchesSerial: the morsel scan returns exactly the serial
// scan's rows with identical node counters and identical plan-total
// calls, for any worker count, under both engines.
func TestParallelScanMatchesSerial(t *testing.T) {
	rel := seqRel("r", 9973)
	want, err := RunBatch(NewCtx(), NewScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		for _, batch := range []bool{false, true} {
			p := NewParallelScan(rel, workers)
			ctx := NewCtx()
			var got []schema.Row
			if batch {
				got, err = RunBatch(ctx, p)
			} else {
				got, err = runExact(ctx, p)
			}
			if err != nil {
				t.Fatalf("workers=%d batch=%v: %v", workers, batch, err)
			}
			sameRows(t, got, want, "morsel scan rows")
			snap := NodeSnapshot(p)
			if snap.Returned != rel.Cardinality() || snap.Delivered != rel.Cardinality() || !snap.Done {
				t.Fatalf("workers=%d batch=%v: node snapshot %+v, want %d/%d done",
					workers, batch, snap, rel.Cardinality(), rel.Cardinality())
			}
			if calls := ctx.Calls(); calls != rel.Cardinality() {
				t.Fatalf("workers=%d batch=%v: %d calls, want %d", workers, batch, calls, rel.Cardinality())
			}
		}
	}
}

// TestParallelScanBounds: a morsel scan's bounds are a serial scan's — worker
// count never changes the work.
func TestParallelScanBounds(t *testing.T) {
	rel := seqRel("r", 500)
	serial := NewScan(rel).FinalBounds(nil)
	for _, workers := range []int{1, 3, 8} {
		if b := NewParallelScan(rel, workers).FinalBounds(nil); b != serial {
			t.Fatalf("workers=%d: bounds %+v, want serial %+v", workers, b, serial)
		}
	}
}

// TestParallelScanLockstepDeterministic: two lockstep runs produce identical
// row order; the node's counters equal a concurrent run's.
func TestParallelScanLockstepDeterministic(t *testing.T) {
	rel := seqRel("r", 9000)
	var firstRows []schema.Row
	for i := 0; i < 2; i++ {
		p := NewParallelScan(rel, 3)
		Lockstep(p)
		rows, err := RunBatch(NewCtx(), p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstRows = rows
			continue
		}
		if len(rows) != len(firstRows) {
			t.Fatalf("run %d: %d rows vs %d", i, len(rows), len(firstRows))
		}
		for j := range rows {
			if !rowsEqual(rows[j], firstRows[j]) {
				t.Fatalf("run %d: row %d differs (lockstep order not deterministic)", i, j)
			}
		}
	}
	// The counters match a concurrent run's.
	p := NewParallelScan(rel, 3)
	if _, err := RunBatch(NewCtx(), p); err != nil {
		t.Fatal(err)
	}
	ls := NewParallelScan(rel, 3)
	Lockstep(ls)
	if _, err := RunBatch(NewCtx(), ls); err != nil {
		t.Fatal(err)
	}
	if a, b := NodeSnapshot(p), NodeSnapshot(ls); a != b {
		t.Fatalf("concurrent counters %+v != lockstep counters %+v", a, b)
	}
}

// TestParallelScanRescan: reopening accumulates counters and surfaces a
// nonzero rescan count, voiding exactness as the protocol requires,
// under either schedule.
func TestParallelScanRescan(t *testing.T) {
	rel := seqRel("r", 300)
	for _, lockstep := range []bool{false, true} {
		p := NewParallelScan(rel, 4)
		if lockstep {
			Lockstep(p)
		}
		first, err := RunBatch(NewCtx(), p)
		if err != nil {
			t.Fatal(err)
		}
		second, err := RunBatch(NewCtx(), p)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, second, first, "rescan rows")
		snap := NodeSnapshot(p)
		if snap.Rescans == 0 {
			t.Fatalf("lockstep=%v: rescans = 0 after reopen", lockstep)
		}
		if snap.Returned != 2*rel.Cardinality() {
			t.Fatalf("lockstep=%v: returned %d after rescan, want %d", lockstep, snap.Returned, 2*rel.Cardinality())
		}
	}
}

// TestParallelScanErrorAndCancel: injected faults and cancellation surface
// from the reader's credits exactly like the serial engine's errors.
func TestParallelScanErrorAndCancel(t *testing.T) {
	rel := seqRel("r", 5000)
	sentinel := errors.New("boom")
	ctx := NewCtx()
	ctx.Inject = func(calls int64) error {
		if calls == 97 {
			return sentinel
		}
		return nil
	}
	if _, err := RunBatch(ctx, NewParallelScan(rel, 4)); !errors.Is(err, sentinel) {
		t.Fatalf("injected fault: got %v, want %v", err, sentinel)
	}

	ctx = NewCtx()
	ctx.Inject = func(calls int64) error {
		if calls == 123 {
			ctx.Cancel()
		}
		return nil
	}
	if _, err := RunBatch(ctx, NewParallelScan(rel, 4)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel: got %v, want ErrCanceled", err)
	}
}

// TestParallelScanPagedWeightedUnits: against a disk-backed store with a
// weighted read cost, each worker batch carries the physical read units its
// pages charged, and the reader's total equals the serial scan's exactly —
// every page is read once regardless of which worker claimed it.
func TestParallelScanPagedWeightedUnits(t *testing.T) {
	rel := seqRel("r", 4000)
	path := filepath.Join(t.TempDir(), "r.heap")
	if err := pager.WriteRelation(path, rel); err != nil {
		t.Fatal(err)
	}
	hf, err := pager.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	want, err := RunBatch(NewCtx(), NewScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	serialPR := pager.NewPagedRelation(hf, pager.NewPool(2))
	serialPR.SetReadCost(2)
	serialCtx := NewCtx()
	if _, err := RunBatch(serialCtx, NewStoreScan(serialPR, nil)); err != nil {
		t.Fatal(err)
	}
	// A cursor pins a page only while it faults it in, so with fewer frames
	// than workers a load waits for a frame: the run completes and its
	// accounting is exact.
	for _, workers := range []int{1, 3, 8} {
		for _, frames := range []int{max(workers, 2), 2} {
			pool := pager.NewPool(frames)
			pr := pager.NewPagedRelation(hf, pool)
			pr.SetReadCost(2)
			p := NewParallelScan(pr, workers)
			ctx := NewCtx()
			got, err := RunBatch(ctx, p)
			// Drained or failed, the workers are stopped: no pin may remain.
			if n := pool.Pinned(); n != 0 {
				t.Fatalf("workers=%d frames=%d: %d frame(s) still pinned after the run (err %v)", workers, frames, n, err)
			}
			if err != nil {
				t.Fatalf("workers=%d frames=%d: %v", workers, frames, err)
			}
			sameRows(t, got, want, "paged morsel scan")
			if calls := ctx.Calls(); calls != serialCtx.Calls() {
				t.Fatalf("workers=%d frames=%d: %d weighted calls, serial scan counted %d", workers, frames, calls, serialCtx.Calls())
			}
		}
	}
}

// TestParallelScanPagedReaderTrail pins the order the node's counted calls
// step in under a per-call hook: a worker batch's weighted read units before
// its rows, as in the serial Scan. The store charges one more unit on the
// chunk that finds a morsel's window over, so each morsel ends in a batch
// that carries only units, which must not end the scan. Lockstep makes the
// trail deterministic; it is written as runs of kind×calls, D for a
// delivered row and U for a read unit.
func TestParallelScanPagedReaderTrail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.heap")
	if err := pager.WriteRelation(path, seqRel("r", 4000)); err != nil {
		t.Fatal(err)
	}
	hf, err := pager.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	pr := pager.NewPagedRelation(hf, pager.NewPool(4))
	pr.SetReadCost(3)
	p := NewParallelScan(endCharge{pr}, 2)
	Lockstep(p)

	var runs []string
	var last string
	n := 0
	var delivered int64
	ctx := NewCtx()
	ctx.BatchSize = 25 // divides both morsels' 1 825 and 2 175 rows
	ctx.OnGetNext = func(int64) {
		step := "U"
		if d := NodeSnapshot(p).Delivered; d != delivered {
			step, delivered = "D", d
		}
		if step != last && n > 0 {
			runs = append(runs, fmt.Sprintf("%s%d", last, n))
			n = 0
		}
		last = step
		n++
	}
	rows, err := RunBatch(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4000 || !NodeSnapshot(p).Done {
		t.Fatalf("%d rows, node %+v: want all 4000 and done", len(rows), NodeSnapshot(p))
	}
	runs = append(runs, fmt.Sprintf("%s%d", last, n))
	got := strings.Join(runs, " ")
	// U4 is morsel 0's closing unit and morsel 1's first page read.
	const want = "U3 D900 U3 D925 U4 D900 U3 D900 U3 D375 U1"
	if got != want {
		t.Fatalf("reader trail\n got %s\nwant %s", got, want)
	}
}

// endCharge is a store whose cursors charge one read unit on the chunk that
// finds their window over.
type endCharge struct{ schema.Store }

func (s endCharge) OpenCursor(lo, hi int, cols []int) (schema.Cursor, error) {
	c, err := s.Store.OpenCursor(lo, hi, cols)
	return endChargeCursor{c}, err
}

type endChargeCursor struct{ schema.Cursor }

func (c endChargeCursor) NextChunk(want int) ([]schema.Row, int64, error) {
	rows, u, err := c.Cursor.NextChunk(want)
	if len(rows) == 0 && err == nil {
		u++
	}
	return rows, u, err
}

// TestParallelOpsNativeBatch pins the vectorization status of the parallel
// scan.
func TestParallelOpsNativeBatch(t *testing.T) {
	if !NativeBatch(NewParallelScan(seqRel("r", 100), 2)) {
		t.Error("ParallelScan not NativeBatch")
	}
}
