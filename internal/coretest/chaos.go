package coretest

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/fault"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/pager"
)

// chaosEstimators builds the estimator set every chaos run samples. Fresh
// values per run: estimators may keep history.
func chaosEstimators() []core.Estimator {
	return []core.Estimator{core.Dne{}, core.Pmax{}, core.Safe{}}
}

var cleanMem = struct {
	sync.Mutex
	m map[string]planRun
}{m: map[string]planRun{}}

// cleanRun returns the entry's fault-free run in one-row pulls without a
// hook, computed once per label: its total(Q) is the horizon schedule
// generation needs so fault indices land inside the run, and its ledger
// read after every credit is the iterator model's trail that a hooked chaos
// run must follow (see runChaosSchedule).
func cleanRun(entry CorpusEntry) (planRun, error) {
	cleanMem.Lock()
	defer cleanMem.Unlock()
	if run, ok := cleanMem.m[entry.Label]; ok {
		return run, nil
	}
	run, err := execute(entry.Build(), 1, false, true)
	if err != nil {
		return planRun{}, fmt.Errorf("coretest: clean run of %s: %w", entry.Label, err)
	}
	cleanMem.m[entry.Label] = run
	return run, nil
}

// chaosProfile is the schedule shape RunChaos draws from: a handful of
// short stalls (enough to move wall-clock instants without slowing the
// suite), and a terminal fault — injected operator error or exact-call
// cancellation — on ~40% of schedules.
func chaosProfile(horizon int64) fault.Profile {
	return fault.Profile{
		Horizon:   horizon,
		MaxStalls: 3,
		MaxStall:  200 * time.Microsecond,
		PError:    0.2,
		PCancel:   0.2,
	}
}

// RunChaos executes one seeded chaos schedule — corpus entry and fault
// schedule both derived deterministically from seed — and verifies every
// invariant. A non-nil error embeds the seed and the schedule's replay
// string; rerunning RunChaos with the same seed reproduces the failure
// exactly. Like every RunChaos* entry point it is called only from tests
// (internal/fault's sweeps).
func RunChaos(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	corpus := Corpus()
	entry := corpus[rng.Intn(len(corpus))]
	clean, err := cleanRun(entry)
	if err != nil {
		return err
	}
	sched := fault.Generate(seed, chaosProfile(clean.calls))
	if err := runChaosSchedule(entry, sched, nil); err != nil {
		return fmt.Errorf("chaos seed %d [%s] schedule %q: %w", seed, entry.Label, sched.String(), err)
	}
	return nil
}

// RunChaosSchedule executes entry under the given fault schedule with the
// inline Monitor's credit trigger attached at every = 1, sampling every
// credit (one call each, in the exact regime), then cross-validates the
// outcome against the faults that actually fired and holds the sample
// series to every rule of core.Series, the UBTight rules included.
//
// The injector puts the run in the exact regime, so a fault or a
// cancellation must land at precisely its scheduled GetNext count even where
// that count falls inside what a hook-free run pulls as one batch. The run
// is also held to the iterator model credit by credit: up to where it
// stopped, the ledger read after each of its credits (the
// inline monitor's samples) must be the entry's clean one-row-pull run's
// (cleanRun), read for read.
func RunChaosSchedule(entry CorpusEntry, sched fault.Schedule) error {
	return runChaosSchedule(entry, sched, nil)
}

func runChaosSchedule(entry CorpusEntry, sched fault.Schedule, pages []*fault.PageBackend) error {
	clean, err := cleanRun(entry)
	if err != nil {
		return err
	}
	root := entry.Build()
	ctx := exec.NewCtx()
	inj := fault.NewInjector(sched)
	inj.Arm(ctx)

	mon := core.NewMonitor(root, 1, chaosEstimators()...)
	mon.Attach(ctx)
	// Attach sizes pulls for every = 1. Restore the default, so that only
	// the injector's hook can force one-row pulls.
	ctx.BatchSize = 0
	var reads [][]ledger.Snapshot
	led := exec.EnsureLedger(root)
	mon.OnSample = func(core.Sample) { reads = append(reads, led.SnapshotAll(nil)) }
	_, runErr := exec.RunBatch(ctx, root)
	total := ctx.Calls()

	// Cross-validate the outcome against the fired faults: a scheduled
	// fault must surface as exactly the failure it models, at exactly the
	// call it was scheduled for.
	var errEv, cancelEv *fault.Event
	for i, ev := range inj.Fired() {
		switch ev.Kind {
		case fault.ErrorFault:
			errEv = &inj.Fired()[i]
		case fault.CancelFault:
			cancelEv = &inj.Fired()[i]
		}
	}
	pageErr := false
	for _, pb := range pages {
		if pb.FiredError() {
			pageErr = true
		}
	}
	switch {
	case pageErr:
		// A physical page-read error is terminal, and on one goroutine
		// nothing runs past it: the run returns exactly that error.
		if runErr == nil {
			return fmt.Errorf("page-read error fault fired but run completed cleanly")
		}
		if !errors.Is(runErr, fault.ErrPageFault) {
			return fmt.Errorf("page-read fault fired but run returned %v", runErr)
		}
	case errEv != nil:
		if !errors.Is(runErr, fault.ErrInjected) {
			return fmt.Errorf("error fault fired at call %d but run returned %v", errEv.At, runErr)
		}
		if total != errEv.At {
			return fmt.Errorf("error fault at call %d but run stopped at %d calls", errEv.At, total)
		}
	case cancelEv != nil:
		// Cancellation stops the run at the next counted call, which never
		// happens when the fault lands on the run's very last call — the
		// plan then drains to EOF normally. Either way no call after At is
		// counted.
		if runErr != nil && !errors.Is(runErr, exec.ErrCanceled) {
			return fmt.Errorf("cancel fault fired at call %d but run returned %v", cancelEv.At, runErr)
		}
		if total != cancelEv.At {
			return fmt.Errorf("cancel fault at call %d but run stopped at %d calls", cancelEv.At, total)
		}
	default:
		if runErr != nil {
			return fmt.Errorf("no terminal fault fired but run returned %v", runErr)
		}
	}

	for k, read := range reads {
		if k >= len(clean.reads) || !slices.Equal(read, clean.reads[k]) {
			return fmt.Errorf("ledger after credit %d of the hooked run, %+v, is not the clean one-row-pull run's", k, read)
		}
	}

	if runErr == nil {
		mon.Finish(total)
	}
	s := core.SeriesOf(entry.Label, mon)
	s.Completed, s.Total = runErr == nil, total
	return s.Check()
}

// chaosPagedReadCost makes paged chaos runs charge weighted physical-read
// units, so cancellation and sampling instants land between a page's read
// and its rows — the "cancel mid-page" failure mode.
const chaosPagedReadCost = 2

// RunChaosPaged executes one seeded chaos schedule against the paged
// differential corpus: entry, call-indexed fault schedule, and physical
// page-read faults (exact-page errors and latency spikes on the
// pager.Backend seam) all derive deterministically from seed. Each run
// scans the shared heap files through a fresh cold buffer pool behind a
// fresh fault wrapper, so replays see identical physical read sequences.
func RunChaosPaged(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	corpus := PagedCorpus()
	pe := corpus[rng.Intn(len(corpus))]
	f, err := fixture()
	if err != nil {
		return err
	}

	// The horizon comes from a fault-free run over a fresh cold pool: every
	// data page is read exactly once, so the weighted total is
	// deterministic and memoizable per label. runChaosSchedule finds this
	// run under the same label and holds the faulted run to it.
	label := "paged-chaos/" + pe.Label
	cleanEntry := CorpusEntry{Label: label, Build: func() exec.Operator {
		cat, err := chaosPagedCatalog(f, nil, nil)
		if err != nil {
			panic(err)
		}
		return pe.Build(cat)
	}}
	clean, err := cleanRun(cleanEntry)
	if err != nil {
		return err
	}

	pb1 := fault.WrapBackend(f.hf1.Backend(), pagedFaultsFor(rng, f.hf1)...)
	pb2 := fault.WrapBackend(f.hf2.Backend(), pagedFaultsFor(rng, f.hf2)...)
	cat, err := chaosPagedCatalog(f, pb1, pb2)
	if err != nil {
		return err
	}
	entry := CorpusEntry{Label: label, Build: func() exec.Operator {
		return pe.Build(cat)
	}}

	sched := fault.Generate(seed, chaosProfile(clean.calls))
	err = runChaosSchedule(entry, sched, []*fault.PageBackend{pb1, pb2})
	if err == nil {
		// However the run ended — drained, failed on a page read, canceled —
		// its cursors are closed and every Get must have met its Release.
		if n := cat.PagedRelation("p2").Pool().Pinned(); n != 0 {
			err = fmt.Errorf("%d frame(s) still pinned after the run", n)
		}
	}
	if err != nil {
		return fmt.Errorf("paged chaos seed %d [%s] schedule %q: %w", seed, entry.Label, sched.String(), err)
	}
	return nil
}

// chaosPagedCatalog builds a per-run catalog over the fixture's heap files:
// fresh pool, optional fault-wrapped backends, weighted read cost. Backends
// may be nil (no page faults armed).
func chaosPagedCatalog(f *pagedFixture, b1, b2 pager.Backend) (*catalog.Catalog, error) {
	cat, err := corpusSideCatalog()
	if err != nil {
		return nil, err
	}
	pool := pager.NewPool(pagedTwinFrames)
	for _, t := range []struct {
		hf *pager.HeapFile
		b  pager.Backend
	}{{f.hf1, b1}, {f.hf2, b2}} {
		var pr *pager.PagedRelation
		if t.b != nil {
			pr = pager.NewPagedRelationBackend(t.hf, pool, t.b)
		} else {
			pr = pager.NewPagedRelation(t.hf, pool)
		}
		pr.SetReadCost(chaosPagedReadCost)
		cat.AddStore(pr)
	}
	return cat, nil
}

// pagedFaultsFor derives this run's physical fault points for one heap
// file: with probability ~0.2 an exact-page read error, ~0.2 a latency
// spike, on a seed-chosen data page.
func pagedFaultsFor(rng *rand.Rand, hf *pager.HeapFile) []fault.PageFault {
	if hf.DataPages() == 0 {
		return nil
	}
	page := hf.DataStart() + uint32(rng.Intn(int(hf.DataPages())))
	switch roll := rng.Float64(); {
	case roll < 0.2:
		return []fault.PageFault{{Page: page, Fail: true}}
	case roll < 0.4:
		return []fault.PageFault{{Page: page, Stall: 200 * time.Microsecond}}
	}
	return nil
}
