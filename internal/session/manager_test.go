package session

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/tpch"
)

var (
	catOnce sync.Once
	catMem  *catalog.Catalog
)

// testCatalog returns a shared tiny TPC-H catalog (generation dominates
// test time; the catalog itself is read-only under execution).
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	catOnce.Do(func() {
		catMem = tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 7})
	})
	return catMem
}

// slowPlan builds a cross-product plan whose run is long enough to observe
// running state, samples, and mid-flight cancellation.
func slowPlan(cat *catalog.Catalog) exec.Operator {
	b := plan.NewBuilder(cat)
	return b.Cross(b.Scan("lineitem"), b.Scan("lineitem")).Op
}

// waitState polls until the session reaches a state satisfying ok.
func waitState(t *testing.T, s *Session, ok func(State) bool) State {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.State(); ok(st) {
			return st
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("session %s stuck in %s", s.ID(), s.State())
	return ""
}

func waitTerminal(t *testing.T, s *Session) State {
	return waitState(t, s, State.Terminal)
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := New(testCatalog(t), Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	s, err := m.Submit("SELECT COUNT(*) FROM lineitem", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	in := s.Info()
	if in.RowCount != 1 || len(in.Rows) != 1 {
		t.Fatalf("rows = %d / %v", in.RowCount, in.Rows)
	}
	// Summary is the same snapshot without the formatted rows.
	if sum := s.Summary(); sum.Rows != nil || sum.RowCount != in.RowCount || sum.Calls != in.Calls || sum.Progress.Seq != in.Progress.Seq {
		t.Fatalf("summary = %+v, want Info %+v without rows", sum, in)
	}
	if in.Calls <= 0 {
		t.Fatalf("calls = %d", in.Calls)
	}
	if in.Progress == nil || !in.Progress.Final {
		t.Fatalf("missing final progress: %+v", in.Progress)
	}
	for name, v := range in.Progress.Estimates {
		if v < 0.999 {
			t.Fatalf("final %s estimate = %f, want 1.0", name, v)
		}
	}
	mt := m.Metrics()
	if mt.Admitted != 1 || mt.Completed != 1 {
		t.Fatalf("metrics: %+v", mt)
	}
}

// TestLimitQueriesFinishAtOne: a LIMIT that abandons a filtered scan — alone
// or under a join — must still end with bounds around the work actually done
// and pmax (the stream's final_estimate) at exactly 1.
func TestLimitQueriesFinishAtOne(t *testing.T) {
	m := New(testCatalog(t), Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	for _, sql := range []string{
		"SELECT l_orderkey FROM lineitem LIMIT 5",
		"SELECT l_orderkey FROM lineitem WHERE l_quantity > 15 LIMIT 5",
		"SELECT l_orderkey FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 15 LIMIT 5",
	} {
		s, err := m.Submit(sql, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, s); st != StateFinished {
			t.Fatalf("%s: state = %s, err = %v", sql, st, s.Err())
		}
		in := s.Info()
		p := in.Progress
		if p == nil || !p.Final {
			t.Fatalf("%s: missing final progress: %+v", sql, p)
		}
		if p.LB > in.Calls || p.UB < in.Calls {
			t.Fatalf("%s: final bounds [%d,%d] miss total %d", sql, p.LB, p.UB, in.Calls)
		}
		if p.Hi != 1 {
			t.Fatalf("%s: final estimate %v, want exactly 1", sql, p.Hi)
		}
	}
}

func TestSubmitCompileErrorRejected(t *testing.T) {
	m := New(testCatalog(t), Config{})
	defer m.Close()
	if _, err := m.Submit("SELECT FROM FROM", SubmitOptions{}); err == nil {
		t.Fatal("want compile error")
	}
	if _, err := m.Submit("SELECT COUNT(*) FROM lineitem", SubmitOptions{Estimators: []string{"nope"}}); err == nil {
		t.Fatal("want estimator error")
	}
	if mt := m.Metrics(); mt.Rejected != 2 || mt.Admitted != 0 {
		t.Fatalf("metrics: %+v", mt)
	}
}

func TestQueueingAndShedding(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{MaxConcurrent: 2, MaxQueue: 2, SampleInterval: time.Millisecond})
	defer m.Close()

	// Fill both run slots with slow queries, then the queue, then shed.
	var all []*Session
	for i := 0; i < 4; i++ {
		s, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		all = append(all, s)
	}
	if _, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{}); !errors.Is(err, ErrShed) {
		t.Fatalf("5th submit err = %v, want ErrShed", err)
	}
	mt := m.Metrics()
	if mt.Shed != 1 || mt.Admitted != 4 {
		t.Fatalf("metrics: %+v", mt)
	}
	if mt.Active != 2 || mt.Queued != 2 {
		t.Fatalf("gauges: %+v", mt)
	}
	// Cancel a runner; a queued session must take the freed slot.
	if _, err := m.Cancel(all[0].ID(), ""); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, all[0])
	waitState(t, all[2], func(st State) bool { return st == StateRunning || st.Terminal() })
	for _, s := range all[1:] {
		m.Cancel(s.ID(), "")
	}
	for _, s := range all {
		if st := waitTerminal(t, s); st != StateCanceled {
			t.Fatalf("%s: state %s", s.ID(), st)
		}
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{MaxConcurrent: 1, MaxQueue: 4, SampleInterval: time.Millisecond})
	defer m.Close()
	running, _ := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
	queued, _ := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
	if _, err := m.Cancel(queued.ID(), "changed my mind"); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued session state = %s", st)
	}
	in := queued.Info()
	if in.Started != nil || in.CancelReason != "changed my mind" {
		t.Fatalf("info: %+v", in)
	}
	m.Cancel(running.ID(), "")
	waitTerminal(t, running)
	if mt := m.Metrics(); mt.Canceled != 2 {
		t.Fatalf("metrics: %+v", mt)
	}
}

func TestCancelUnknownSession(t *testing.T) {
	m := New(testCatalog(t), Config{})
	defer m.Close()
	if _, err := m.Cancel("q999999", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Get("q999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadlineCancelsSession(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{SampleInterval: time.Millisecond})
	defer m.Close()
	s, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{Deadline: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateCanceled {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	if in := s.Info(); in.CancelReason != "deadline exceeded" {
		t.Fatalf("reason = %q", in.CancelReason)
	}
}

func TestSubscribeStreamsAndCloses(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{SampleInterval: 200 * time.Microsecond})
	defer m.Close()
	b := plan.NewBuilder(cat)
	s, err := m.SubmitPlan(b.Cross(b.Scan("orders"), b.Scan("supplier")).Op, "orders x supplier", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := s.Subscribe()
	defer unsub()
	var events []Progress
	for p := range ch {
		events = append(events, p)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if !last.Final || last.State != StateFinished {
		t.Fatalf("last event: %+v", last)
	}
	if est := last.Estimates["safe"]; est < 0.999 {
		t.Fatalf("final safe estimate = %f", est)
	}
	// Subscribing after the end yields the final event, then closure.
	ch2, unsub2 := s.Subscribe()
	defer unsub2()
	p, ok := <-ch2
	if !ok || !p.Final {
		t.Fatalf("late subscribe got %+v ok=%v", p, ok)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("late subscribe channel not closed")
	}
}

func TestCloseDrainsEverything(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{MaxConcurrent: 2, MaxQueue: 8, SampleInterval: time.Millisecond})
	var all []*Session
	for i := 0; i < 6; i++ {
		s, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if st := s.State(); !st.Terminal() {
			t.Fatalf("%s not terminal after Close: %s", s.ID(), st)
		}
	}
	// Admission is closed.
	if _, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Queued sessions must have been canceled without running.
	queuedCanceled := 0
	for _, s := range all {
		in := s.Info()
		if in.State == StateCanceled && in.Started == nil {
			queuedCanceled++
			if in.CancelReason != "server shutdown" {
				t.Fatalf("queued cancel reason = %q", in.CancelReason)
			}
		}
	}
	if queuedCanceled == 0 {
		t.Fatal("expected at least one queued session canceled by Close")
	}
	// Close is idempotent.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestListOrder(t *testing.T) {
	m := New(testCatalog(t), Config{MaxConcurrent: 1})
	defer m.Close()
	a, _ := m.Submit("SELECT COUNT(*) FROM supplier", SubmitOptions{})
	b, _ := m.Submit("SELECT COUNT(*) FROM region", SubmitOptions{})
	ls := m.List()
	if len(ls) != 2 || ls[0] != a || ls[1] != b {
		t.Fatalf("list = %v", ls)
	}
	waitTerminal(t, a)
	waitTerminal(t, b)
}

// TestNodeProgressDeltaStream verifies the ledger-delta stream: the final
// event carries every plan node's cumulative counters (all done, with the
// per-node calls summing to the session total), node names come from the
// plan shape, and intermediate events only re-send nodes that advanced.
func TestNodeProgressDeltaStream(t *testing.T) {
	m := New(testCatalog(t), Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	s, err := m.Submit("SELECT COUNT(*) FROM lineitem", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	in := s.Info()
	if in.Progress == nil || !in.Progress.Final {
		t.Fatalf("missing final progress: %+v", in.Progress)
	}
	nodes := in.Progress.Nodes
	if len(nodes) == 0 {
		t.Fatal("final event has no node counters")
	}
	var sum int64
	for i, n := range nodes {
		if n.ID != int32(i) {
			t.Fatalf("node %d has id %d; final event must carry the dense id space", i, n.ID)
		}
		if n.Name == "" {
			t.Fatalf("node %d has no name", i)
		}
		if !n.Done {
			t.Fatalf("node %d (%s) not done at EOF", i, n.Name)
		}
		sum += n.Calls
	}
	if sum != in.Calls {
		t.Fatalf("per-node calls sum to %d, session total is %d", sum, in.Calls)
	}
}

// TestNodeProgressParallelPlan streams a parallel (morsel-scan) plan through
// a session and checks the per-node ledger counters account for every row
// exactly once: the scan's reader counts every row its workers produced.
func TestNodeProgressParallelPlan(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	b := plan.NewBuilder(cat)
	root := b.ParallelScan("lineitem", 4).ScalarAgg(plan.AggSpec{Kind: expr.AggCountStar, As: "n"}).Op
	s, err := m.SubmitPlan(root, "parallel count(lineitem)", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	in := s.Info()
	nodes := in.Progress.Nodes
	// agg + morsel scan = 2 nodes; the scan's workers share one NodeID.
	if len(nodes) != 2 {
		t.Fatalf("final event has %d nodes, want 2", len(nodes))
	}
	card := cat.MustRelation("lineitem").Cardinality()
	if nodes[1].Calls != card {
		t.Fatalf("scan calls sum to %d, want %d", nodes[1].Calls, card)
	}
	if nodes[1].Delivered != card {
		t.Fatalf("scan delivered %d, want %d", nodes[1].Delivered, card)
	}
}

// subscribeAll attaches a subscriber that cannot fall behind: its buffer
// holds every event the test's sessions publish, so none is displaced and
// the delta stream arrives whole.
func subscribeAll(s *Session) <-chan Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan Progress, 1<<14)
	if s.hasLast {
		ch <- s.last
	}
	s.subs[s.nextSub] = &subscriber{ch: ch}
	s.nextSub++
	return ch
}

// TestNodeDeltasAreOneInstant accumulates the ledger-delta stream of long
// sessions sampled every 50 µs and checks every event against itself: its
// nodes (the changed ones, over the counters the earlier events left) come
// from the same ledger read as its Calls, so their Calls sum to the event's.
func TestNodeDeltasAreOneInstant(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{MaxConcurrent: 1, SampleInterval: 50 * time.Microsecond})
	defer m.Close()
	b := plan.NewBuilder(cat)
	const rounds = 3
	events, torn := 0, 0
	for round := 0; round < rounds; round++ {
		block := make(chan struct{})
		if _, err := m.SubmitPlan(rowsPlan(1), "blocker", SubmitOptions{Instrument: gateInstrument(block)}); err != nil {
			t.Fatal(err)
		}
		root := b.Cross(b.Scan("lineitem"), b.Scan("nation")).ScalarAgg(plan.AggSpec{Kind: expr.AggCountStar, As: "n"}).Op
		s, err := m.SubmitPlan(root, "lineitem x nation", SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ch := subscribeAll(s) // queued: the stream starts at frame 0
		close(block)
		var calls []int64
		seq := int64(0)
		for p := range ch {
			if p.Seq != seq+1 {
				t.Fatalf("round %d: event %d follows %d; the subscriber lost events", round, p.Seq, seq)
			}
			seq = p.Seq
			for _, n := range p.Nodes {
				for int(n.ID) >= len(calls) {
					calls = append(calls, 0)
				}
				calls[n.ID] = n.Calls
			}
			var sum int64
			for _, c := range calls {
				sum += c
			}
			events++
			if sum != p.Calls {
				if torn == 0 {
					t.Errorf("round %d, event %d: nodes sum to %d calls, the event says %d", round, p.Seq, sum, p.Calls)
				}
				torn++
			}
		}
		if st := s.State(); st != StateFinished {
			t.Fatalf("round %d: state = %s, err = %v", round, st, s.Err())
		}
	}
	if torn > 0 {
		t.Errorf("%d of %d events mix two instants", torn, events)
	}
}

// TestFinishedSessionsReleaseTheirPlan holds finished join sessions alive
// and checks they pin only their summary: the operator tree (hash tables,
// arena slabs behind batch scratch), the result's backing array and the
// monitor must be collectable, while Info, Samples and a late Subscribe
// still answer.
func TestFinishedSessionsReleaseTheirPlan(t *testing.T) {
	m := New(testCatalog(t), Config{SampleInterval: time.Millisecond, KeepRows: 3})
	defer m.Close()
	const sql = `SELECT c_mktsegment, COUNT(*) FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_extendedprice > 950 GROUP BY c_mktsegment`
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n = 20
	sessions := make([]*Session, 0, n)
	before := heap()
	for i := 0; i < n; i++ {
		s, err := m.Submit(sql, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, s); st != StateFinished {
			t.Fatalf("state = %s, err = %v", st, s.Err())
		}
		sessions = append(sessions, s)
	}
	after := heap()
	if grown := int64(after) - int64(before); grown > n*64<<10 {
		t.Errorf("%d finished sessions retain %d KB, want < 64 KB each", n, grown>>10)
	}
	for _, s := range sessions {
		in := s.Info()
		if in.RowCount != 5 || len(in.Rows) != 3 || len(in.Rows[0]) != 2 || in.Rows[0][0] == "" {
			t.Fatalf("%s: rows = %d / %v", s.ID(), in.RowCount, in.Rows)
		}
		smps := s.Samples()
		if len(smps) == 0 || smps[len(smps)-1].Calls != in.Calls {
			t.Fatalf("%s: %d samples, last not at total %d", s.ID(), len(smps), in.Calls)
		}
		ch, unsub := s.Subscribe()
		p, ok := <-ch
		if !ok || !p.Final || p.Estimates["pmax"] != 1.0 {
			t.Fatalf("%s: late subscribe got %+v (ok=%v)", s.ID(), p, ok)
		}
		if _, open := <-ch; open {
			t.Fatalf("%s: late subscribe channel not closed after the final event", s.ID())
		}
		unsub()
	}
	runtime.KeepAlive(sessions)
}
