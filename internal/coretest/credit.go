package coretest

import (
	"fmt"
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// CreditReads runs op in bulk at batchSize (0 = the default) with no hook,
// and returns every ledger read a sampler can take of that run, in order:
// the read before the run, the read after each credit (the sampling
// trigger's instants) and the read after the run.
func CreditReads(op exec.Operator, batchSize int) ([][]ledger.Snapshot, error) {
	run, err := execute(op, batchSize, false, true)
	if err != nil {
		return nil, err
	}
	before := make([]ledger.Snapshot, len(run.final))
	return append(append([][]ledger.Snapshot{before}, run.reads...), run.final), nil
}

// CheckCreditReads holds every ledger read a sampler can take to the paper's
// bounds. A sampler reads the ledger once (Ledger.SnapshotAll) on the run's
// goroutine — before the run, at a credit (Ctx.SampleEvery,
// Ctx.SampleInterval) or after the run — so it reads the whole plan at one
// instant, and the reads CreditReads returns are all it can take.
//
// It runs build's plan in bulk at batch sizes 0, 1 and 13. Every read must
// have
//
//	Curr <= LB <= total(Q) <= UBTight <= UB,
//
// and its LB, UB and UBTight must lie between its two neighbours': bounds
// only tighten. It logs the number of reads.
func CheckCreditReads(t testing.TB, label string, build func() exec.Operator) {
	t.Helper()
	var n int
	for _, bs := range []int{0, 1, 13} {
		op := build()
		tr := core.NewTracker(op)
		reads, err := CreditReads(op, bs)
		if err == nil {
			n += len(reads)
			err = checkReads(tr, reads)
		}
		if err != nil {
			t.Fatalf("%s[bs=%d]: %v", label, bs, err)
		}
	}
	t.Logf("%s: %d reads", label, n)
}

// checkReads folds reads, a run's reads in order, the last one after the run,
// and checks each with checkRead against its neighbours.
func checkReads(tr *core.Tracker, reads [][]ledger.Snapshot) error {
	states := make([]*core.State, len(reads))
	for k, read := range reads {
		states[k] = tr.Fold(read)
	}
	total := states[len(states)-1].Curr
	for k, s := range states {
		if err := checkRead(s, states[max(k-1, 0)], states[min(k+1, len(states)-1)], total); err != nil {
			return fmt.Errorf("read %d: %w", k, err)
		}
	}
	return nil
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
