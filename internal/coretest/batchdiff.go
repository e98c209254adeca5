package coretest

import (
	"fmt"
	"strings"
	"testing"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
)

// This file is the executable statement of the executor's equivalence
// claim: bulk pulls and one-row (exact) pulls of the same plan produce
// identical results and end with identical counters. What a sampler reads
// during a bulk run is held to the paper's bounds by the torn-read check
// (torn.go). Its runs and their comparison are shared with the paged
// differential (pageddiff.go) and the chaos harness (chaos.go).

func renderRows(rows []schema.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// CheckBatchRowEquivalence runs build's plan in both regimes — exact, with
// a per-call hook installed, and bulk, with none — and asserts:
//
//   - identical result rows, in order,
//   - identical total GetNext calls,
//   - identical per-node final ledger snapshots.
//
// The whole check repeats across batch sizes, including degenerate one-row
// batches.
func CheckBatchRowEquivalence(t testing.TB, label string, build func() exec.Operator) {
	t.Helper()
	row := mustRun(t, label+": row", build(), 0, true)
	for _, bs := range []int{0, 1, 13} {
		lbl := fmt.Sprintf("%s[bs=%d]", label, bs)
		batch := mustRun(t, lbl+": batch", build(), bs, false)
		if err := compareRuns(lbl, "batch", "row", batch, row); err != nil {
			t.Fatal(err)
		}
	}
}

// planRun is one execution of a plan: its result rows, its total calls, its
// final per-node ledger and — when recorded — one ledger read after every
// credit.
type planRun struct {
	rows  []schema.Row
	calls int64
	final []ledger.Snapshot
	reads [][]ledger.Snapshot
}

// mustRun is execute without recording, failing t on a run error. what names
// the run in a failure.
func mustRun(t testing.TB, what string, op exec.Operator, batchSize int, exact bool) planRun {
	t.Helper()
	run, err := execute(op, batchSize, exact, false)
	if err != nil {
		t.Fatalf("%s run: %v", what, err)
	}
	return run
}

// execute runs op at batchSize — exact when a no-op per-call hook makes every
// pull one GetNext, bulk otherwise. With record set, it also reads the
// ledger after every credit through the credit trigger at every = 1, which
// leaves the pull size alone.
func execute(op exec.Operator, batchSize int, exact, record bool) (planRun, error) {
	var run planRun
	led := exec.EnsureLedger(op)
	ctx := exec.NewCtx()
	ctx.BatchSize = batchSize
	if exact {
		ctx.OnGetNext = func(int64) {}
	}
	if record {
		ctx.SampleEvery(1, func(int64) { run.reads = append(run.reads, led.SnapshotAll(nil)) })
	}
	rows, err := exec.RunBatch(ctx, op)
	if err != nil {
		return planRun{}, err
	}
	run.rows, run.calls, run.final = rows, ctx.Calls(), led.SnapshotAll(nil)
	return run, nil
}

// compareRuns checks that sub ended as ref did: the same result rows in the
// same order, the same total calls and the same final ledger. subName and
// refName name the two runs in failures.
func compareRuns(label, subName, refName string, sub, ref planRun) error {
	got, want := renderRows(sub.rows), renderRows(ref.rows)
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
	return nil
}
