package fault_test

import (
	"testing"

	"sqlprogress/internal/coretest"
	"sqlprogress/internal/fault"
)

// chaosSchedules is the number of seeded fault schedules each sweep
// replays its corpus under, -race runs included.
const chaosSchedules = 500

// TestChaosInvariants is the chaos harness: it replays the coretest
// invariant corpus under randomized-but-seeded fault schedules — operator
// stalls, forced operator errors, exact-call cancellations — and asserts
// the paper's guarantees at every recorded sample of the inline monitor.
// Every failure message embeds the seed and the schedule's replay string;
// `coretest.RunChaos(seed)` reproduces it exactly.
func TestChaosInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	for seed := int64(1); seed <= chaosSchedules; seed++ {
		if err := coretest.RunChaos(seed); err != nil {
			t.Fatalf("%v", err)
		}
	}
}

// TestChaosInvariantsPaged replays the paged differential corpus under the
// seeded sweep, with physical faults layered on top of the call-indexed
// schedule: exact-page read errors and latency spikes injected on the
// pager.Backend seam, plus cancellations that land on the weighted unit
// ticks between a page's read and its rows (cancel mid-page). Every run
// scans the shared heap files through a fresh cold buffer pool.
// `coretest.RunChaosPaged(seed)` reproduces any failure.
func TestChaosInvariantsPaged(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	for seed := int64(1); seed <= chaosSchedules; seed++ {
		if err := coretest.RunChaosPaged(seed); err != nil {
			t.Fatalf("%v", err)
		}
	}
}

// TestBatchChaosExactMidBatch pins "a hook forces one-row pulls" with
// hand-built schedules: error and cancel faults at call indices that fall
// strictly inside what a hook-free run pulls as one batch (neither the first
// nor a multiple of the batch size), on every corpus entry. The harness
// asserts the run stops at exactly the scheduled call, and on a serial entry
// its inline monitor samples every call — a run that kept bulk pulls under a
// hook would overshoot or sample states the iterator model never reaches,
// and fail here.
func TestBatchChaosExactMidBatch(t *testing.T) {
	for _, entry := range coretest.Corpus() {
		entry := entry
		t.Run(entry.Label, func(t *testing.T) {
			for _, ev := range []fault.Event{
				{At: 7, Kind: fault.ErrorFault},
				{At: 123, Kind: fault.ErrorFault},
				{At: 7, Kind: fault.CancelFault},
				{At: 123, Kind: fault.CancelFault},
			} {
				sched := fault.Schedule{Events: []fault.Event{ev}}
				if err := coretest.RunChaosSchedule(entry, sched); err != nil {
					t.Fatalf("schedule %q: %v", sched.String(), err)
				}
			}
		})
	}
}

// TestChaosScheduleReplay pins the replay contract: a failing seed's
// schedule can be re-derived and re-run bit-for-bit, and its String form
// round-trips through Parse.
func TestChaosScheduleReplay(t *testing.T) {
	corpus := coretest.Corpus()
	sched := fault.Generate(42, fault.Profile{Horizon: 500, MaxStalls: 3, MaxStall: 100, PError: 0.5, PCancel: 0.5})
	again := fault.Generate(42, fault.Profile{Horizon: 500, MaxStalls: 3, MaxStall: 100, PError: 0.5, PCancel: 0.5})
	if sched.String() != again.String() {
		t.Fatalf("Generate not deterministic: %q vs %q", sched, again)
	}
	parsed, err := fault.Parse(sched.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", sched, err)
	}
	if parsed.String() != sched.String() {
		t.Fatalf("round trip changed schedule: %q vs %q", parsed, sched)
	}
	// The same schedule against the same entry must reach the same verdict.
	for i := 0; i < 2; i++ {
		if err := coretest.RunChaosSchedule(corpus[0], parsed); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
}
