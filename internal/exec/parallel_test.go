package exec

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// joinInputs builds fresh probe/build relations for the parallel join tests:
// a skewed probe (many duplicate keys, some unmatched) and a build side with
// duplicate keys and rows that match nothing.
func joinInputs() (probe, build *schema.Relation) {
	probe = relOf("p", []string{"a", "x"}, nil)
	for i := int64(0); i < 400; i++ {
		probe.Append(schema.Row{sqlval.Int(i % 23), sqlval.Int(i)})
	}
	build = relOf("b", []string{"k", "y"}, nil)
	for i := int64(0); i < 60; i++ {
		build.Append(schema.Row{sqlval.Int(i % 31), sqlval.Int(1000 + i)})
	}
	return probe, build
}

func parallelJoinOf(probe, build *schema.Relation, workers int, mode JoinMode, lockstep bool) *ParallelHashJoin {
	parts := make([]Operator, workers)
	for i := range parts {
		parts[i] = NewStoreScanPartition(probe, i, workers)
	}
	sb := NewScan(build)
	bk := []expr.Expr{col(sb, "b", "k")}
	pk := []expr.Expr{col(parts[0], "p", "a")}
	j := NewParallelHashJoin(sb, parts, bk, pk, mode)
	if lockstep {
		Lockstep(j)
	}
	return j
}

func serialJoinOf(probe, build *schema.Relation, mode JoinMode) *HashJoin {
	sp := NewScan(probe)
	sb := NewScan(build)
	return NewHashJoin(sb, sp,
		[]expr.Expr{col(sb, "b", "k")}, []expr.Expr{col(sp, "p", "a")}, mode)
}

// TestParallelScanMatchesSerial: the morsel scan returns exactly the serial
// scan's rows with identical aggregate node counters and identical plan-total
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
				t.Fatalf("workers=%d batch=%v: aggregate snapshot %+v, want %d/%d done",
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
// row order and identical per-sub-slot occupancy; the aggregate equals a
// concurrent run's aggregate.
func TestParallelScanLockstepDeterministic(t *testing.T) {
	rel := seqRel("r", 9000)
	var firstRows []schema.Row
	var firstSlots []int64
	for i := 0; i < 2; i++ {
		p := NewParallelScan(rel, 3)
		Lockstep(p)
		led := EnsureLedger(p)
		rows, err := RunBatch(NewCtx(), p)
		if err != nil {
			t.Fatal(err)
		}
		var slots []int64
		id := p.progressBase().id
		for w := 0; w < led.Workers(id); w++ {
			slots = append(slots, led.WorkerSlot(id, w).Returned())
		}
		if i == 0 {
			firstRows, firstSlots = rows, slots
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
		if !reflect.DeepEqual(slots, firstSlots) {
			t.Fatalf("run %d: sub-slot occupancy %v vs %v", i, slots, firstSlots)
		}
	}
	// Aggregate counters match a concurrent run.
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
		t.Fatalf("concurrent aggregate %+v != lockstep aggregate %+v", a, b)
	}
}

// TestParallelScanRescan: reopening accumulates counters and surfaces a
// nonzero aggregate rescan count, voiding exactness as the protocol requires,
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
			t.Fatalf("lockstep=%v: aggregate rescans = 0 after reopen", lockstep)
		}
		if snap.Returned != 2*rel.Cardinality() {
			t.Fatalf("lockstep=%v: returned %d after rescan, want %d", lockstep, snap.Returned, 2*rel.Cardinality())
		}
	}
}

// TestParallelScanErrorAndCancel: injected faults and cancellation surface
// from worker goroutines exactly like the serial engine's errors.
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
// weighted read cost, the morsel workers credit physical read units to their
// own sub-slots and the aggregate equals the serial scan's total exactly —
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

// TestParallelScanPagedWorkerTrail pins the order a worker's counted calls
// step in under a per-call hook: a chunk's delivered rows first, then the
// weighted units of the pages read for it. Lockstep makes the trail
// deterministic; it is written as runs of worker:kind×calls, D for a
// delivered row and U for a read unit.
func TestParallelScanPagedWorkerTrail(t *testing.T) {
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
	p := NewParallelScan(pr, 2)
	Lockstep(p)
	led := EnsureLedger(p)
	id := p.progressBase().id

	var runs []string
	var last string
	n := 0
	prev := make([][2]int64, 2)
	ctx := NewCtx()
	ctx.BatchSize = 300
	ctx.OnGetNext = func(int64) {
		for w := range prev {
			s := led.WorkerSlot(id, w)
			r, d := s.Returned(), s.Delivered()
			if r == prev[w][0] {
				continue
			}
			step := fmt.Sprintf("%d:U", w)
			if d != prev[w][1] {
				step = fmt.Sprintf("%d:D", w)
			}
			prev[w] = [2]int64{r, d}
			if step != last && n > 0 {
				runs = append(runs, fmt.Sprintf("%s%d", last, n))
				n = 0
			}
			last = step
			n++
		}
	}
	if _, err := RunBatch(ctx, p); err != nil {
		t.Fatal(err)
	}
	runs = append(runs, fmt.Sprintf("%s%d", last, n))
	got := strings.Join(runs, " ")
	const want = "0:D300 0:U3 0:D900 0:U3 0:D625 1:D300 1:U3 1:D900 1:U3 1:D900 1:U3 1:D75"
	if got != want {
		t.Fatalf("worker trail\n got %s\nwant %s", got, want)
	}
}

// TestParallelHashJoinMatchesSerial: for every join mode, the partitioned
// join produces the serial HashJoin's multiset with identical plan-total
// calls and an aggregate join-node snapshot equal to the serial node's.
func TestParallelHashJoinMatchesSerial(t *testing.T) {
	probe, build := joinInputs()
	for _, mode := range []JoinMode{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		serial := serialJoinOf(probe, build, mode)
		serialCtx := NewCtx()
		want, err := RunBatch(serialCtx, serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []bool{false, true} {
				j := parallelJoinOf(probe, build, workers, mode, false)
				ctx := NewCtx()
				var got []schema.Row
				if batch {
					got, err = RunBatch(ctx, j)
				} else {
					got, err = runExact(ctx, j)
				}
				if err != nil {
					t.Fatalf("mode=%v workers=%d batch=%v: %v", mode, workers, batch, err)
				}
				sameRows(t, got, want, "parallel join rows")
				if gc, wc := ctx.Calls(), serialCtx.Calls(); gc != wc {
					t.Fatalf("mode=%v workers=%d batch=%v: %d calls, serial %d", mode, workers, batch, gc, wc)
				}
				if gs, ws := NodeSnapshot(j), NodeSnapshot(serial); gs != ws {
					t.Fatalf("mode=%v workers=%d batch=%v: join snapshot %+v, serial %+v", mode, workers, batch, gs, ws)
				}
			}
		}
	}
}

// TestParallelHashJoinBoundsMatchSerial: summed probe-partition bounds feed
// the serial per-mode arithmetic, so the node's final bounds equal the serial
// join's for the same inputs.
func TestParallelHashJoinBoundsMatchSerial(t *testing.T) {
	probe, build := joinInputs()
	for _, mode := range []JoinMode{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		for _, linear := range []bool{false, true} {
			serial := serialJoinOf(probe, build, mode)
			serial.Linear = linear
			sb := []CardBounds{
				serial.Children()[0].FinalBounds(nil),
				serial.Children()[1].FinalBounds(nil),
			}
			want := serial.FinalBounds(sb)
			j := parallelJoinOf(probe, build, 3, mode, false)
			j.Linear = linear
			var ch []CardBounds
			for _, c := range j.Children() {
				ch = append(ch, c.FinalBounds(nil))
			}
			if got := j.FinalBounds(ch); got != want {
				t.Fatalf("mode=%v linear=%v: bounds %+v, serial %+v", mode, linear, got, want)
			}
		}
	}
}

// TestParallelHashJoinLockstepDeterministic: lockstep probing yields the same
// row order and the same per-sub-slot counts run after run.
func TestParallelHashJoinLockstepDeterministic(t *testing.T) {
	probe, build := joinInputs()
	var firstRows []schema.Row
	var firstSlots []int64
	for i := 0; i < 2; i++ {
		j := parallelJoinOf(probe, build, 3, InnerJoin, true)
		led := EnsureLedger(j)
		rows, err := RunBatch(NewCtx(), j)
		if err != nil {
			t.Fatal(err)
		}
		var slots []int64
		id := j.progressBase().id
		for w := 0; w < led.Workers(id); w++ {
			slots = append(slots, led.WorkerSlot(id, w).Returned())
		}
		if i == 0 {
			firstRows, firstSlots = rows, slots
			continue
		}
		if len(rows) != len(firstRows) {
			t.Fatalf("run %d: %d rows vs %d", i, len(rows), len(firstRows))
		}
		for k := range rows {
			if !rowsEqual(rows[k], firstRows[k]) {
				t.Fatalf("run %d: row %d differs", i, k)
			}
		}
		if !reflect.DeepEqual(slots, firstSlots) {
			t.Fatalf("run %d: sub-slot occupancy %v vs %v", i, slots, firstSlots)
		}
	}
}

// TestParallelHashJoinRescan: the partitioned join replays exactly on reopen.
func TestParallelHashJoinRescan(t *testing.T) {
	probe, build := joinInputs()
	j := parallelJoinOf(probe, build, 3, InnerJoin, false)
	first, err := RunBatch(NewCtx(), j)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunBatch(NewCtx(), j)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, second, first, "join rescan rows")
	if snap := NodeSnapshot(j); snap.Rescans == 0 {
		t.Fatalf("aggregate snapshot %+v, want nonzero rescans", snap)
	}
}

// TestParallelHashJoinErrorPropagation: a fault inside a probe partition
// subtree surfaces as the run's error.
func TestParallelHashJoinErrorPropagation(t *testing.T) {
	probe, build := joinInputs()
	sentinel := errors.New("boom")
	ctx := NewCtx()
	ctx.Inject = func(calls int64) error {
		if calls == 113 {
			return sentinel
		}
		return nil
	}
	if _, err := RunBatch(ctx, parallelJoinOf(probe, build, 4, InnerJoin, false)); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want %v", err, sentinel)
	}
}

// failOp is a probe partition whose first pull calls wait (when set) and
// then fails with err.
type failOp struct {
	base
	err  error
	wait func()
}

func newFailOp(sch *schema.Schema, err error, wait func()) *failOp {
	f := &failOp{err: err, wait: wait}
	f.init(sch)
	return f
}

func (f *failOp) Open(*Ctx) error { f.reopen(); return nil }
func (f *failOp) NextBatch(*Ctx, *Batch, int) error {
	if f.wait != nil {
		f.wait()
	}
	return f.err
}
func (f *failOp) Close() error                        { return nil }
func (f *failOp) Children() []Operator                { return nil }
func (f *failOp) Name() string                        { return "Fail" }
func (f *failOp) FinalBounds([]CardBounds) CardBounds { return CardBounds{} }
func (f *failOp) StreamChildren() []int               { return nil }
func (f *failOp) BlockingChildren() []int             { return nil }

// TestParallelHashJoinFirstErrorWins: when one probe worker fails with a
// real error and another with the cancellation sweep it set off, the run
// reports the real error, whichever worker failed first.
func TestParallelHashJoinFirstErrorWins(t *testing.T) {
	probe, build := joinInputs()
	sentinel := errors.New("boom")
	for _, canceledFirst := range []bool{false, true} {
		var j *ParallelHashJoin
		// after blocks until a worker's error has been recorded.
		after := func() {
			for {
				j.g.errMu.Lock()
				recorded := j.g.firstErr != nil
				j.g.errMu.Unlock()
				if recorded {
					return
				}
				runtime.Gosched()
			}
		}
		sch := NewScan(probe).Schema()
		first, second := newFailOp(sch, sentinel, nil), newFailOp(sch, ErrCanceled, after)
		if canceledFirst {
			first, second = newFailOp(sch, ErrCanceled, nil), newFailOp(sch, sentinel, after)
		}
		sb := NewScan(build)
		j = NewParallelHashJoin(sb, []Operator{first, second},
			[]expr.Expr{col(sb, "b", "k")}, []expr.Expr{expr.NewCol(sch, "p", "a")}, InnerJoin)
		if _, err := RunBatch(NewCtx(), j); !errors.Is(err, sentinel) {
			t.Fatalf("canceledFirst=%v: got %v, want %v", canceledFirst, err, sentinel)
		}
	}
}

// aggPlanOf builds a fresh parallel aggregation over partition scans of rel.
func aggPlanOf(rel *schema.Relation, workers int, lockstep bool) *ParallelHashAgg {
	parts := make([]Operator, workers)
	for i := range parts {
		parts[i] = NewStoreScanPartition(rel, i, workers)
	}
	gb := []expr.Expr{col(parts[0], "big", "k")}
	aggs := []expr.Agg{
		{Kind: expr.AggCountStar, Name: "n"},
		{Kind: expr.AggSum, Arg: col(parts[0], "big", "v"), Name: "s"},
		{Kind: expr.AggAvg, Arg: col(parts[0], "big", "v"), Name: "a"},
		{Kind: expr.AggMin, Arg: col(parts[0], "big", "v"), Name: "lo"},
		{Kind: expr.AggMax, Arg: col(parts[0], "big", "v"), Name: "hi"},
	}
	names := []string{"k"}
	kinds := []sqlval.Kind{sqlval.KindInt}
	a := NewParallelHashAgg(parts, gb, names, kinds, aggs)
	if lockstep {
		Lockstep(a)
	}
	return a
}

func aggRel() *schema.Relation {
	rel := relOf("big", []string{"k", "v"}, nil)
	for i := int64(0); i < 3000; i++ {
		rel.Append(schema.Row{sqlval.Int(i % 41), sqlval.Int(i*3 - 700)})
	}
	return rel
}

// TestParallelHashAggMatchesSerial: the merged parallel aggregation emits
// exactly the serial HashAgg's groups — same order (both sort by key), same
// values for COUNT/SUM/AVG/MIN/MAX — with identical plan-total calls.
func TestParallelHashAggMatchesSerial(t *testing.T) {
	rel := aggRel()
	sc := NewScan(rel)
	serial := NewHashAgg(sc,
		[]expr.Expr{col(sc, "big", "k")}, []string{"k"}, []sqlval.Kind{sqlval.KindInt},
		[]expr.Agg{
			{Kind: expr.AggCountStar, Name: "n"},
			{Kind: expr.AggSum, Arg: col(sc, "big", "v"), Name: "s"},
			{Kind: expr.AggAvg, Arg: col(sc, "big", "v"), Name: "a"},
			{Kind: expr.AggMin, Arg: col(sc, "big", "v"), Name: "lo"},
			{Kind: expr.AggMax, Arg: col(sc, "big", "v"), Name: "hi"},
		})
	serialCtx := NewCtx()
	want, err := RunBatch(serialCtx, serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		for _, batch := range []bool{false, true} {
			a := aggPlanOf(rel, workers, false)
			ctx := NewCtx()
			var got []schema.Row
			if batch {
				got, err = RunBatch(ctx, a)
			} else {
				got, err = runExact(ctx, a)
			}
			if err != nil {
				t.Fatalf("workers=%d batch=%v: %v", workers, batch, err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d batch=%v: %d groups, want %d", workers, batch, len(got), len(want))
			}
			for i := range got {
				if !rowsEqual(got[i], want[i]) {
					t.Fatalf("workers=%d batch=%v: group %d = %v, want %v", workers, batch, i, got[i], want[i])
				}
			}
			if gc, wc := ctx.Calls(), serialCtx.Calls(); gc != wc {
				t.Fatalf("workers=%d batch=%v: %d calls, serial %d", workers, batch, gc, wc)
			}
			if gs, ws := NodeSnapshot(a), NodeSnapshot(serial); gs != ws {
				t.Fatalf("workers=%d batch=%v: agg snapshot %+v, serial %+v", workers, batch, gs, ws)
			}
		}
	}
}

// TestParallelHashAggLockstepDeterministic: lockstep folding is fully
// reproducible, and its output equals the concurrent merge's (the merge
// itself is order-fixed either way).
func TestParallelHashAggLockstepDeterministic(t *testing.T) {
	rel := aggRel()
	var first []schema.Row
	for i := 0; i < 2; i++ {
		a := aggPlanOf(rel, 3, true)
		rows, err := RunBatch(NewCtx(), a)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rows
			continue
		}
		if len(rows) != len(first) {
			t.Fatalf("run %d: %d rows vs %d", i, len(rows), len(first))
		}
		for k := range rows {
			if !rowsEqual(rows[k], first[k]) {
				t.Fatalf("run %d: group %d differs", i, k)
			}
		}
	}
	conc, err := RunBatch(NewCtx(), aggPlanOf(rel, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	for k := range conc {
		if !rowsEqual(conc[k], first[k]) {
			t.Fatalf("concurrent group %d differs from lockstep", k)
		}
	}
}

// TestParallelHashAggErrorPropagation: a fault during the blocking fold
// surfaces from Open.
func TestParallelHashAggErrorPropagation(t *testing.T) {
	rel := aggRel()
	sentinel := errors.New("boom")
	ctx := NewCtx()
	ctx.Inject = func(calls int64) error {
		if calls == 511 {
			return sentinel
		}
		return nil
	}
	if _, err := RunBatch(ctx, aggPlanOf(rel, 4, false)); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want %v", err, sentinel)
	}
}

// TestParallelOpsNativeBatch pins vectorization status for the new operators.
func TestParallelOpsNativeBatch(t *testing.T) {
	rel := seqRel("r", 100)
	if !NativeBatch(NewParallelScan(rel, 2)) {
		t.Error("ParallelScan not NativeBatch")
	}
	probe, build := joinInputs()
	if !NativeBatch(parallelJoinOf(probe, build, 2, InnerJoin, false)) {
		t.Error("ParallelHashJoin not NativeBatch")
	}
	if !NativeBatch(aggPlanOf(aggRel(), 2, false)) {
		t.Error("ParallelHashAgg not NativeBatch")
	}
}
