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
// of a RunBatch run the ledger — and therefore every estimator reading it —
// matches exec.Run's state at the same Curr, and the two runs produce
// identical results and identical final counters. Its marked runs and their
// comparison are shared with the paged differential (pageddiff.go).

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

// CheckBatchRowEquivalence runs build's plan under both engines — exec.Run
// and RunBatch — and asserts:
//
//   - identical result rows (in order for serial plans, as a multiset for
//     parallel ones — partition interleaving is the one nondeterminism),
//   - identical total GetNext calls,
//   - identical per-node final ledger snapshots,
//   - for serial plans, at every batch quiesce point: identical per-node
//     ledger snapshots and bitwise-identical dne/pmax/safe estimates when the
//     row engine is sampled at the same Curr.
//
// Parallel plans skip the per-mark comparison: worker goroutines count
// concurrently, so a mid-run instant is not a synchronized point in either
// engine. The whole check repeats across batch sizes, including degenerate
// one-row batches.
func CheckBatchRowEquivalence(t testing.TB, label string, build func() exec.Operator, parallel bool) {
	t.Helper()
	row := runMarked(t, label+": row", build(), 0, true, !parallel)
	for _, bs := range []int{0, 1, 13} {
		lbl := fmt.Sprintf("%s[bs=%d]", label, bs)
		batch := runMarked(t, lbl+": batch", build(), bs, false, !parallel)
		compareRuns(t, lbl, "batch", "row", batch, row, parallel)
	}
}

// markedRun is one instrumented execution: its result rows, its total
// calls, its mark trail and its final per-node ledger.
type markedRun struct {
	rows  []schema.Row
	calls int64
	marks []batchMark
	final []ledger.Snapshot
}

// runMarked executes op — under exec.Run when exact, else under
// exec.RunBatchObserved at batchSize — and, for a serial plan, marks the
// ledger and estimates at every counted call (exact) or quiesce point
// (bulk), and once more after the run. A mark at the Curr of the one before
// it supersedes that one: the state at EOF carries the done flags that
// uncounted EOF-probing pulls set. what names the run in a failure.
func runMarked(t testing.TB, what string, op exec.Operator, batchSize int, exact, serial bool) markedRun {
	t.Helper()
	tracker := core.NewTracker(op)
	_, led := core.ShapeOf(op)
	var marks []batchMark
	mark := func(curr int64) {
		if !serial {
			return
		}
		m := captureMark(tracker, led, curr)
		if n := len(marks); n > 0 && marks[n-1].curr == curr {
			marks[n-1] = m
			return
		}
		marks = append(marks, m)
	}
	ctx := exec.NewCtx()
	var rows []schema.Row
	var err error
	if exact {
		if serial {
			ctx.OnGetNext = mark
		}
		rows, err = exec.Run(ctx, op)
	} else {
		ctx.BatchSize = batchSize
		rows, err = exec.RunBatchObserved(ctx, op, mark)
	}
	if err != nil {
		t.Fatalf("%s run: %v", what, err)
	}
	mark(ctx.Calls())
	return markedRun{rows: rows, calls: ctx.Calls(), marks: marks, final: led.SnapshotAll(nil)}
}

// compareRuns asserts that sub observed what ref did: the same result rows
// (as a multiset when parallel), the same total calls and, for a serial
// plan, the same final ledger and — at each of sub's marks — the same
// per-node ledger and bitwise-identical dne/pmax/safe as ref's mark at that
// Curr. ref must hold a mark at every Curr sub does. subName and refName
// name the two runs in failures.
func compareRuns(t testing.TB, label, subName, refName string, sub, ref markedRun, parallel bool) {
	t.Helper()
	got, want := renderRows(sub.rows, parallel), renderRows(ref.rows, parallel)
	if len(got) != len(want) {
		t.Fatalf("%s: %s produced %d rows, %s %d", label, subName, len(got), refName, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs: %s %q, %s %q", label, i, subName, got[i], refName, want[i])
		}
	}
	if sub.calls != ref.calls {
		t.Fatalf("%s: total calls: %s %d, %s %d", label, subName, sub.calls, refName, ref.calls)
	}
	if len(sub.final) != len(ref.final) {
		t.Fatalf("%s: ledger sizes differ: %s %d, %s %d", label, subName, len(sub.final), refName, len(ref.final))
	}
	for i := range sub.final {
		if sub.final[i] != ref.final[i] {
			t.Fatalf("%s: node %d final snapshot: %s %+v, %s %+v", label, i, subName, sub.final[i], refName, ref.final[i])
		}
	}
	if parallel {
		return
	}
	j := 0
	for k, sm := range sub.marks {
		for j < len(ref.marks) && ref.marks[j].curr < sm.curr {
			j++
		}
		if j == len(ref.marks) || ref.marks[j].curr != sm.curr {
			t.Fatalf("%s: %s mark %d at Curr=%d, %s has none there (trajectory diverged)", label, subName, k, sm.curr, refName)
		}
		rm := ref.marks[j]
		for i := range sm.nodes {
			if sm.nodes[i] != rm.nodes[i] {
				t.Fatalf("%s: mark %d (Curr=%d) node %d: %s %+v, %s %+v",
					label, k, sm.curr, i, subName, sm.nodes[i], refName, rm.nodes[i])
			}
		}
		if sm.dne != rm.dne || sm.pmax != rm.pmax || sm.safe != rm.safe {
			t.Fatalf("%s: mark %d (Curr=%d) estimates: %s dne=%v pmax=%v safe=%v, %s dne=%v pmax=%v safe=%v",
				label, k, sm.curr, subName, sm.dne, sm.pmax, sm.safe, refName, rm.dne, rm.pmax, rm.safe)
		}
	}
}
