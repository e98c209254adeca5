package exec

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
)

func seqRel(name string, n int) *schema.Relation {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	return relOf(name, []string{"a", "b"}, rows)
}

func TestScanPartitionsDisjointCover(t *testing.T) {
	rel := seqRel("r", 97)
	for _, parts := range []int{1, 2, 3, 4, 8, 97, 100} {
		covered := make([]bool, len(rel.Rows))
		var total int64
		for p := 0; p < parts; p++ {
			s := NewScanPartition(rel, p, parts)
			lo, hi := s.window()
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("parts=%d: position %d covered twice", parts, i)
				}
				covered[i] = true
			}
			b := s.FinalBounds(nil)
			if b.LB != b.UB || b.LB != int64(hi-lo) {
				t.Fatalf("parts=%d part=%d: bounds %+v != window size %d", parts, p, b, hi-lo)
			}
			total += b.LB
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("parts=%d: position %d not covered", parts, i)
			}
		}
		if total != rel.Cardinality() {
			t.Fatalf("parts=%d: windows sum to %d, want %d", parts, total, rel.Cardinality())
		}
	}
}

func TestExchangeMatchesSerialScan(t *testing.T) {
	rel := seqRel("r", 233)
	want, err := Run(NewCtx(), NewScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		ex := NewParallelStoreScan(rel, workers)
		ctx := NewCtx()
		got, err := Run(ctx, ex)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameRows(t, got, want, "parallel scan")
		// The exchange delivered every row once, and each partition's ledger
		// slot holds exactly its window size (disjoint single-writer slots).
		if n := ex.Runtime().Returned(); n != rel.Cardinality() {
			t.Fatalf("workers=%d: exchange returned %d, want %d", workers, n, rel.Cardinality())
		}
		if !ex.Runtime().Done() {
			t.Fatalf("workers=%d: exchange not marked done", workers)
		}
		var sum int64
		for _, p := range ex.Children() {
			rt := p.Runtime()
			if !rt.Done() {
				t.Fatalf("workers=%d: partition %s not done", workers, p.Name())
			}
			b := p.FinalBounds(nil)
			if rt.Returned() != b.LB {
				t.Fatalf("workers=%d: partition %s returned %d, want %d", workers, p.Name(), rt.Returned(), b.LB)
			}
			sum += rt.Returned()
		}
		if sum != rel.Cardinality() {
			t.Fatalf("workers=%d: partitions returned %d total, want %d", workers, sum, rel.Cardinality())
		}
		// Global call count covers the exchange plus every partition.
		if calls := ctx.Calls(); calls != 2*rel.Cardinality() {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls, 2*rel.Cardinality())
		}
	}
}

func TestExchangeWithPredicatePartitions(t *testing.T) {
	rel := seqRel("r", 120)
	workers := 4
	parts := make([]Operator, workers)
	for i := range parts {
		s := NewScanPartition(rel, i, workers)
		s.Pred = expr.Compare(expr.EQ, col(s, "r", "b"), intLit(3))
		parts[i] = s
	}
	ex := NewExchange(parts...)
	got, err := Run(NewCtx(), ex)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewScan(rel)
	serial.Pred = expr.Compare(expr.EQ, col(serial, "r", "b"), intLit(3))
	want, err := Run(NewCtx(), serial)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want, "filtered parallel scan")
	// Scanned-but-filtered rows still count: each partition's calls equal
	// its full window even though it delivered fewer rows.
	for _, p := range ex.Children() {
		rt := p.Runtime()
		if rt.Returned() != p.FinalBounds(nil).LB {
			t.Fatalf("partition %s: %d calls, want %d", p.Name(), rt.Returned(), p.FinalBounds(nil).LB)
		}
		if rt.Delivered() >= rt.Returned() {
			t.Fatalf("partition %s: delivered %d of %d scanned, expected filtering", p.Name(), rt.Delivered(), rt.Returned())
		}
	}
}

func TestExchangeErrorPropagation(t *testing.T) {
	rel := seqRel("r", 200)
	ex := NewParallelStoreScan(rel, 4)
	ctx := NewCtx()
	sentinel := errors.New("boom")
	ctx.Inject = func(calls int64) error {
		if calls == 37 {
			return sentinel
		}
		return nil
	}
	if _, err := Run(ctx, ex); !errors.Is(err, sentinel) {
		t.Fatalf("got err %v, want %v", err, sentinel)
	}
}

func TestExchangeCancelPropagation(t *testing.T) {
	rel := seqRel("r", 200)
	ex := NewParallelStoreScan(rel, 4)
	ctx := NewCtx()
	ctx.Inject = func(calls int64) error {
		if calls == 41 {
			ctx.Cancel()
		}
		return nil
	}
	if _, err := Run(ctx, ex); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got err %v, want ErrCanceled", err)
	}
	// Counters stay coherent after an abort: no partition counted more than
	// its window, and the exchange never delivered more than the partitions.
	var sum int64
	for _, p := range ex.Children() {
		rt := p.Runtime()
		if rt.Returned() > p.FinalBounds(nil).UB {
			t.Fatalf("partition %s: %d calls > window %d", p.Name(), rt.Returned(), p.FinalBounds(nil).UB)
		}
		sum += rt.Returned()
	}
	if ex.Runtime().Returned() > sum {
		t.Fatalf("exchange returned %d > partitions' %d", ex.Runtime().Returned(), sum)
	}
}

func TestExchangeRescan(t *testing.T) {
	rel := seqRel("r", 64)
	ex := NewParallelStoreScan(rel, 3)
	first, err := Run(NewCtx(), ex)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(NewCtx(), ex)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, second, first, "rescan output")
	if r := ex.Runtime().Rescans(); r != 1 {
		t.Fatalf("exchange rescans = %d, want 1", r)
	}
	for _, p := range ex.Children() {
		if r := p.Runtime().Rescans(); r != 1 {
			t.Fatalf("partition %s rescans = %d, want 1", p.Name(), r)
		}
		// Counters accumulate across rescans (the paper's Curr is cumulative).
		if n := p.Runtime().Returned(); n != 2*p.FinalBounds(nil).LB {
			t.Fatalf("partition %s returned %d after rescan, want %d", p.Name(), n, 2*p.FinalBounds(nil).LB)
		}
	}
}

// TestExchangePagedIOStillCorrect runs the parallel scan against a real
// disk-backed paged store — page-aligned partitions racing each other
// through a pool smaller than the file — and must produce exactly the
// serial in-memory rows. This is the successor of the retired SimPage*
// simulation: actual I/O latency and buffer-pool contention instead of
// sleeps.
func TestExchangePagedIOStillCorrect(t *testing.T) {
	rel := seqRel("r", 40000)
	path := filepath.Join(t.TempDir(), "r.heap")
	if err := pager.WriteRelation(path, rel); err != nil {
		t.Fatal(err)
	}
	hf, err := pager.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	// One frame per worker (each partition cursor pins a page: fewer is
	// ErrPoolExhausted by design), still smaller than the file.
	const maxWorkers = 8
	if hf.DataPages() <= maxWorkers {
		t.Fatalf("file has %d data pages: the pool would hold all of it", hf.DataPages())
	}
	pool := pager.NewPool(maxWorkers)
	pr := pager.NewPagedRelation(hf, pool)
	want, err := Run(NewCtx(), NewScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, maxWorkers} {
		ctx := NewCtx()
		got, err := Run(ctx, NewParallelStoreScan(pr, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameRows(t, got, want, "paged parallel scan")
		if n := pool.Pinned(); n != 0 {
			t.Fatalf("workers=%d: %d frame(s) still pinned after the run", workers, n)
		}
		if calls := ctx.Calls(); calls != 2*rel.Cardinality() {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls, 2*rel.Cardinality())
		}
	}
}

// TestExchangeConcurrentLedgerReaders runs a parallel scan while sampler
// goroutines hammer the ledger — the tentpole claim that samplers never
// touch the operator tree and stay race-free against N concurrent writers.
func TestExchangeConcurrentLedgerReaders(t *testing.T) {
	rel := seqRel("r", 4000)
	ex := NewParallelStoreScan(rel, 4)
	led := EnsureLedger(ex)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var snaps []StatsSnapshot
			var prev int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snaps = led.SnapshotAll(snaps[:0])
				var sum int64
				for _, s := range snaps {
					sum += s.Returned
				}
				if tot := led.TotalReturned(); tot < prev {
					t.Errorf("TotalReturned went backward: %d -> %d", prev, tot)
					return
				} else {
					prev = tot
				}
				_ = sum
			}
		}()
	}
	if _, err := Run(NewCtx(), ex); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if n := led.TotalReturned(); n != 2*rel.Cardinality() {
		t.Fatalf("final TotalReturned = %d, want %d", n, 2*rel.Cardinality())
	}
}
