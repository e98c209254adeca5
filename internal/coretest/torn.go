package coretest

import (
	"fmt"
	"slices"
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// CheckTornReads holds every ledger read a sampler can take to the paper's
// bounds. A sampler reads the ledger once (Ledger.SnapshotAll) at a credit
// instant (Ctx.SampleEvery) or from another goroutine at any time; such a
// read loads the nodes one after another while the run keeps crediting, so
// it may see some nodes before a credit and others after it, and a credited
// slot between its calls and its deliveries (Slot.Snapshot loads the two in
// the order credit stores them, and a read can straddle both stores).
//
// It runs build's plan in bulk at batch sizes 0, 1 and 13 — a parallel plan
// in lockstep (exec.Lockstep), so that it too runs on one goroutine —
// reading the ledger before the run, after every credit and after the run.
// Between each adjacent pair of reads it folds every read a sampler could
// take: each node that changed taken from either read, and a credited slot
// also torn both ways. Every read, recorded or torn, must have
//
//	Curr <= LB <= total(Q) <= UBTight <= UB,
//
// and its LB, UB and UBTight must lie between its two neighbours': bounds
// only tighten, whichever nodes a read sees first. It logs the number of
// recorded and torn reads.
func CheckTornReads(t testing.TB, label string, build func() exec.Operator) {
	t.Helper()
	var reads, torn int
	for _, bs := range []int{0, 1, 13} {
		op := build()
		exec.Lockstep(op)
		tr := core.NewTracker(op)
		run, err := execute(op, bs, false, true)
		if err == nil {
			seq := append(append([][]ledger.Snapshot{make([]ledger.Snapshot, len(run.final))}, run.reads...), run.final)
			reads += len(seq)
			err = foldTorn(tr, seq, run.calls, &torn)
		}
		if err != nil {
			t.Fatalf("%s[bs=%d]: %v", label, bs, err)
		}
	}
	t.Logf("%s: %d reads, %d torn reads", label, reads, torn)
}

// foldTorn folds seq, a run's reads in order, and every torn read between
// adjacent ones, checking each with checkRead and counting the torn ones.
func foldTorn(tr *core.Tracker, seq [][]ledger.Snapshot, total int64, torn *int) error {
	prev := tr.Fold(seq[0])
	if err := checkRead(prev, prev, prev, total); err != nil {
		return fmt.Errorf("read 0: %w", err)
	}
	for k := 1; k < len(seq); k++ {
		a, c := seq[k-1], seq[k]
		next := tr.Fold(c)
		if err := checkRead(next, prev, next, total); err != nil {
			return fmt.Errorf("read %d: %w", k, err)
		}
		// Each changed node's options: its state in a, in c and — for a
		// credited slot — its two in-slot tears. Done is loaded first and
		// Rescans last, so a tear keeps a's flag and c's rescan count.
		var changed []int
		var options [][]ledger.Snapshot
		for i := range a {
			if a[i] == c[i] {
				continue
			}
			opts := []ledger.Snapshot{a[i], c[i]}
			if a[i].Returned != c[i].Returned && a[i].Delivered != c[i].Delivered {
				calls, rows := a[i], a[i]
				calls.Returned, calls.Rescans = c[i].Returned, c[i].Rescans
				rows.Delivered, rows.Rescans = c[i].Delivered, c[i].Rescans
				opts = append(opts, calls, rows)
			}
			changed, options = append(changed, i), append(options, opts)
		}
		mixed := slices.Clone(a)
		for pick := make([]int, len(changed)); advance(pick, options); {
			for j, i := range changed {
				mixed[i] = options[j][pick[j]]
			}
			if slices.Equal(mixed, c) {
				continue
			}
			*torn++
			if err := checkRead(tr.Fold(mixed), prev, next, total); err != nil {
				return fmt.Errorf("torn read between reads %d and %d (nodes %v at options %v): %w", k-1, k, changed, pick, err)
			}
		}
		prev = next
	}
	return nil
}

// advance steps pick, one option index per changed node, to the next
// combination, reporting false once every combination has been visited.
func advance(pick []int, options [][]ledger.Snapshot) bool {
	for j := range pick {
		if pick[j]++; pick[j] < len(options[j]) {
			return true
		}
		pick[j] = 0
	}
	return false
}

// checkRead holds s to total(Q) and to bounds between those of a, a read
// before it, and c, one after it.
func checkRead(s, a, c *core.State, total int64) error {
	if s.Curr <= s.LB && s.LB <= total && total <= s.UBTight && s.UBTight <= s.UB &&
		a.LB <= s.LB && s.LB <= c.LB && c.UB <= s.UB && s.UB <= a.UB && c.UBTight <= s.UBTight && s.UBTight <= a.UBTight {
		return nil
	}
	return fmt.Errorf("Curr %d LB %d UBTight %d UB %d against total %d, neighbours' LB %d..%d UBTight %d..%d UB %d..%d",
		s.Curr, s.LB, s.UBTight, s.UB, total, a.LB, c.LB, a.UBTight, c.UBTight, a.UB, c.UB)
}
