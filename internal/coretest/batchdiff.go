package coretest

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
)

// This file is the executable statement of the executor's central claim:
// bulk pulls are observationally equivalent to one-row (exact) pulls for
// everything the paper's progress machinery can see. At every quiesce point
// of a hook-free RunBatch run the ledger — and therefore every estimator
// reading it — matches a hooked run's state at the same Curr, and the two
// runs produce identical results and identical final counters. Its marked
// runs and their comparison are shared with the paged differential
// (pageddiff.go).

// batchMark is one quiesce-point observation: the full per-node ledger state
// plus the three headline estimators' outputs at that instant.
type batchMark struct {
	curr            int64
	nodes           []ledger.Snapshot
	dne, pmax, safe float64
}

func captureMark(tracker *core.Tracker, led *ledger.Ledger, curr int64) batchMark {
	s := tracker.Capture()
	return batchMark{
		curr:  curr,
		nodes: led.SnapshotAll(nil),
		dne:   (core.Dne{}).Estimate(s),
		pmax:  (core.Pmax{}).Estimate(s),
		safe:  (core.Safe{}).Estimate(s),
	}
}

func renderRows(rows []schema.Row, sorted bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	if sorted {
		sort.Strings(out)
	}
	return out
}

// CheckBatchRowEquivalence runs build's plan in both regimes — exact, with
// a per-call hook installed, and bulk, with none — and asserts:
//
//   - identical result rows (in order for serial plans, as a multiset for
//     parallel ones — partition interleaving is the one nondeterminism),
//   - identical total GetNext calls,
//   - identical per-node final ledger snapshots,
//   - for serial plans, at every batch quiesce point: identical per-node
//     ledger snapshots and bitwise-identical dne/pmax/safe estimates when the
//     exact run is sampled at the same Curr.
//
// A plan is serial when it runs on one goroutine (exec.OnOneGoroutine).
// Parallel plans skip the per-mark comparison: worker goroutines count
// concurrently, so a mid-run instant is not a synchronized point in either
// regime. The whole check repeats across batch sizes, including degenerate
// one-row batches.
func CheckBatchRowEquivalence(t testing.TB, label string, build func() exec.Operator) {
	t.Helper()
	row := runMarked(t, label+": row", build(), 0, true)
	for _, bs := range []int{0, 1, 13} {
		lbl := fmt.Sprintf("%s[bs=%d]", label, bs)
		batch := runMarked(t, lbl+": batch", build(), bs, false)
		if err := compareRuns(lbl, "batch", "row", batch, row); err != nil {
			t.Fatal(err)
		}
	}
}

// markedRun is one instrumented execution: its result rows, its total
// calls, its mark trail, its final per-node ledger, and whether its plan
// ran on one goroutine.
type markedRun struct {
	rows   []schema.Row
	calls  int64
	marks  []batchMark
	final  []ledger.Snapshot
	serial bool
}

// marker builds a mark trail over one plan: for a serial plan, one mark per
// Curr it is called at, a later mark at the same Curr superseding the
// earlier one (the state at EOF carries the done flags that uncounted
// EOF-probing pulls set). For a parallel plan it marks nothing.
type marker struct {
	tracker *core.Tracker
	led     *ledger.Ledger
	serial  bool
	marks   []batchMark
}

func newMarker(op exec.Operator) *marker {
	_, led := core.ShapeOf(op)
	return &marker{tracker: core.NewTracker(op), led: led, serial: exec.OnOneGoroutine(op)}
}

func (m *marker) mark(curr int64) {
	if !m.serial {
		return
	}
	mk := captureMark(m.tracker, m.led, curr)
	if n := len(m.marks); n > 0 && m.marks[n-1].curr == curr {
		m.marks[n-1] = mk
		return
	}
	m.marks = append(m.marks, mk)
}

// runMarked executes op under exec.RunBatchObserved — exact, with the
// marker installed as the per-call hook, or in bulk at batchSize with it as
// the quiesce-point observer — marking every counted call (exact) or
// quiesce point (bulk), and once more after the run. A parallel plan's hook
// is installed all the same, so its exact run is exact, but marks nothing.
// what names the run in a failure.
func runMarked(t testing.TB, what string, op exec.Operator, batchSize int, exact bool) markedRun {
	t.Helper()
	run, err := markRun(op, batchSize, exact)
	if err != nil {
		t.Fatalf("%s run: %v", what, err)
	}
	return run
}

func markRun(op exec.Operator, batchSize int, exact bool) (markedRun, error) {
	m := newMarker(op)
	ctx := exec.NewCtx()
	ctx.BatchSize = batchSize
	observe := m.mark
	if exact {
		ctx.OnGetNext, observe = m.mark, nil
	}
	rows, err := exec.RunBatchObserved(ctx, op, observe)
	if err != nil {
		return markedRun{}, err
	}
	m.mark(ctx.Calls())
	return markedRun{rows: rows, calls: ctx.Calls(), marks: m.marks, final: m.led.SnapshotAll(nil), serial: m.serial}, nil
}

// compareRuns checks that sub observed what ref did: the same result rows
// (as a multiset when parallel), the same total calls, the same final
// ledger and, for a serial plan, compareMarks over their trails. subName
// and refName name the two runs in failures.
func compareRuns(label, subName, refName string, sub, ref markedRun) error {
	parallel := !ref.serial
	got, want := renderRows(sub.rows, parallel), renderRows(ref.rows, parallel)
	if len(got) != len(want) {
		return fmt.Errorf("%s: %s produced %d rows, %s %d", label, subName, len(got), refName, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d differs: %s %q, %s %q", label, i, subName, got[i], refName, want[i])
		}
	}
	if sub.calls != ref.calls {
		return fmt.Errorf("%s: total calls: %s %d, %s %d", label, subName, sub.calls, refName, ref.calls)
	}
	if len(sub.final) != len(ref.final) {
		return fmt.Errorf("%s: ledger sizes differ: %s %d, %s %d", label, subName, len(sub.final), refName, len(ref.final))
	}
	for i := range sub.final {
		if sub.final[i] != ref.final[i] {
			return fmt.Errorf("%s: node %d final snapshot: %s %+v, %s %+v", label, i, subName, sub.final[i], refName, ref.final[i])
		}
	}
	if parallel {
		return nil
	}
	return compareMarks(label, subName, refName, sub.marks, ref.marks)
}

// compareMarks checks that at each of sub's marks ref's mark at that Curr
// shows the same per-node ledger and bitwise-identical dne/pmax/safe. ref
// must hold a mark at every Curr sub does.
func compareMarks(label, subName, refName string, sub, ref []batchMark) error {
	j := 0
	for k, sm := range sub {
		for j < len(ref) && ref[j].curr < sm.curr {
			j++
		}
		if j == len(ref) || ref[j].curr != sm.curr {
			return fmt.Errorf("%s: %s mark %d at Curr=%d, %s has none there (trajectory diverged)", label, subName, k, sm.curr, refName)
		}
		rm := ref[j]
		for i := range sm.nodes {
			if sm.nodes[i] != rm.nodes[i] {
				return fmt.Errorf("%s: mark %d (Curr=%d) node %d: %s %+v, %s %+v",
					label, k, sm.curr, i, subName, sm.nodes[i], refName, rm.nodes[i])
			}
		}
		if sm.dne != rm.dne || sm.pmax != rm.pmax || sm.safe != rm.safe {
			return fmt.Errorf("%s: mark %d (Curr=%d) estimates: %s dne=%v pmax=%v safe=%v, %s dne=%v pmax=%v safe=%v",
				label, k, sm.curr, subName, sm.dne, sm.pmax, sm.safe, refName, rm.dne, rm.pmax, rm.safe)
		}
	}
	return nil
}
