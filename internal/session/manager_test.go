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

// waitStarted returns once s has left the queue: it reads the first event
// of a subscription, which is frame 0 (published when the run starts) or,
// for a session that ended first, the final event. It returns that event's
// state.
func waitStarted(t *testing.T, s *Session) State {
	t.Helper()
	ch, unsub := s.Subscribe()
	defer unsub()
	p, ok := <-ch
	if !ok {
		t.Fatalf("session %s: subscription closed before its first event", s.id)
	}
	return p.State
}

// waitTerminal drains a subscription, which ends with the session's final
// event, and returns that event's state.
func waitTerminal(t *testing.T, s *Session) State {
	t.Helper()
	ch, unsub := s.Subscribe()
	defer unsub()
	var last Progress
	for p := range ch {
		last = p
	}
	if !last.Final {
		t.Fatalf("session %s: subscription ended without a final event: %+v", s.id, last)
	}
	return last.State
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := New(testCatalog(t), Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	s, err := m.Submit("SELECT COUNT(*) FROM lineitem", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, s.Info().Error)
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
			t.Fatalf("%s: state = %s, err = %v", sql, st, s.Info().Error)
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
	if _, err := m.Cancel(all[0].id, ""); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, all[0])
	waitStarted(t, all[2])
	for _, s := range all[1:] {
		m.Cancel(s.id, "")
	}
	for _, s := range all {
		if st := waitTerminal(t, s); st != StateCanceled {
			t.Fatalf("%s: state %s", s.id, st)
		}
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{MaxConcurrent: 1, MaxQueue: 4, SampleInterval: time.Millisecond})
	defer m.Close()
	running, _ := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
	queued, _ := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
	if _, err := m.Cancel(queued.id, "changed my mind"); err != nil {
		t.Fatal(err)
	}
	if st := queued.Summary().State; st != StateCanceled {
		t.Fatalf("queued session state = %s", st)
	}
	in := queued.Info()
	if in.Started != nil || in.CancelReason != "changed my mind" {
		t.Fatalf("info: %+v", in)
	}
	m.Cancel(running.id, "")
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
		t.Fatalf("state = %s, err = %v", st, s.Info().Error)
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
	// One subscription, read to its end: a reader descheduled past the
	// 16-slot buffer loses intermediate events, never the final one.
	var events []Progress
	ch, unsub := s.Subscribe()
	for p := range ch {
		events = append(events, p)
	}
	unsub()
	if len(events) == 0 {
		t.Fatal("subscription closed without an event")
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
		if st := s.Summary().State; !st.Terminal() {
			t.Fatalf("%s not terminal after Close: %s", s.id, st)
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
		t.Fatalf("state = %s, err = %v", st, s.Info().Error)
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

// TestNodeProgressScanAgg streams a count over a scan through a session and
// checks the per-node ledger counters account for every row exactly once.
func TestNodeProgressScanAgg(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	b := plan.NewBuilder(cat)
	root := b.Scan("lineitem").ScalarAgg(plan.AggSpec{Kind: expr.AggCountStar, As: "n"}).Op
	s, err := m.SubmitPlan(root, "count(lineitem)", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, s.Info().Error)
	}
	in := s.Info()
	nodes := in.Progress.Nodes
	// agg + scan = 2 nodes.
	if len(nodes) != 2 {
		t.Fatalf("final event has %d nodes, want 2", len(nodes))
	}
	card := cat.MustRelation("lineitem").Cardinality()
	if nodes[1].Calls != card {
		t.Fatalf("scan calls = %d, want %d", nodes[1].Calls, card)
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
	s.subs[s.nextSub] = ch
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
		if st := s.Summary().State; st != StateFinished {
			t.Fatalf("round %d: state = %s, err = %v", round, st, s.Info().Error)
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
			t.Fatalf("state = %s, err = %v", st, s.Info().Error)
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
			t.Fatalf("%s: rows = %d / %v", s.id, in.RowCount, in.Rows)
		}
		smps := s.Samples()
		if len(smps) == 0 || smps[len(smps)-1].Calls != in.Calls {
			t.Fatalf("%s: %d samples, last not at total %d", s.id, len(smps), in.Calls)
		}
		ch, unsub := s.Subscribe()
		p, ok := <-ch
		if !ok || !p.Final || p.Estimates["pmax"] != 1.0 {
			t.Fatalf("%s: late subscribe got %+v (ok=%v)", s.id, p, ok)
		}
		if _, open := <-ch; open {
			t.Fatalf("%s: late subscribe channel not closed after the final event", s.id)
		}
		unsub()
	}
	runtime.KeepAlive(sessions)
}
