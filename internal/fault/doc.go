// Package fault is a deterministic fault-injection layer for the executor
// and the session service. A Schedule is a replayable set of fault events
// keyed by the global GetNext call count; an Injector arms a schedule
// against one execution context through exec.Ctx.Inject, so every stall,
// forced operator error, and cancellation lands at an exact, reproducible
// point of the execution.
//
// The paper's guarantees (hard bounds, pmax's mu bound, safe's sqrt(UB/LB)
// bound) are stated per instant of the GetNext stream — which means they
// must survive an adversarial runtime that stretches, truncates, or kills
// that stream. The chaos harness (coretest.RunChaos and its siblings,
// driven by chaos_test.go's sweeps of 500 seeded schedules each, with or
// without -race) uses this package to create those conditions on demand
// and verify the invariants at every observed sample.
//
// Determinism is the package's contract: the same (schedule, seed, plan)
// triple replays the identical fault sequence, so a chaos failure found in
// CI reproduces locally from its logged schedule.
package fault
