package fault_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/coretest"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/fault"
	"sqlprogress/internal/session"
)

// TestServiceChaos drives the session service the way a hostile deployment
// would: a shed-storm burst that overflows admission, per-session fault
// injectors (stalls, forced errors, cancels), a stall longer than
// StallAfter, and scripted hostile subscribers (slow readers, and frozen readers that
// read again only once the session has ended). It asserts the
// service-level guarantees the design promises:
// deterministic shedding at capacity, terminal states that match the
// injected faults, a final event observed by every consumer, estimator
// invariants holding on every recorded sample series, and the stall
// counted: a gap of at least StallAfter between the stalled session's
// events.
func TestServiceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("service chaos is not a -short test")
	}
	const (
		maxConcurrent = 4
		maxQueue      = 4
		stallAfter    = 20 * time.Millisecond
	)
	mgr := session.New(nil, session.Config{
		MaxConcurrent:  maxConcurrent,
		MaxQueue:       maxQueue,
		SampleInterval: 200 * time.Microsecond,
		StallAfter:     stallAfter,
	})
	defer mgr.Close()
	corpus := coretest.Corpus()

	type admitted struct {
		sess  *session.Session
		inj   *fault.Injector
		plan  fault.ConsumerPlan
		entry coretest.CorpusEntry
	}
	var all []admitted
	consumerPlans := fault.GenerateConsumers(11, fault.ServiceProfile{
		Burst:           64,
		PSlowConsumer:   0.3,
		PFrozenConsumer: 0.3,
		MaxReadDelay:    300 * time.Microsecond,
	})
	planAt := 0
	nextPlan := func() fault.ConsumerPlan {
		p := consumerPlans[planAt%len(consumerPlans)]
		planAt++
		return p
	}

	// instrumented arms sched on the session's execution context; extra (if
	// non-nil) wraps the injector's hook.
	submit := func(i int, sched fault.Schedule, wrap func(inner func(int64) error) func(int64) error) (admitted, error) {
		entry := corpus[i%len(corpus)]
		inj := fault.NewInjector(sched)
		root := entry.Build()
		sess, err := mgr.SubmitPlan(root, entry.Label, session.SubmitOptions{
			Instrument: func(ctx *exec.Ctx) {
				inj.Arm(ctx)
				if wrap != nil {
					ctx.Inject = wrap(ctx.Inject)
				}
			},
		})
		return admitted{sess: sess, inj: inj, entry: entry}, err
	}

	// Phase 1 — deterministic shed storm. Four gated sessions hold every
	// run slot, four more fill the queue, so each further submission must
	// shed.
	gate := make(chan struct{})
	gateWrap := func(inner func(int64) error) func(int64) error {
		return func(calls int64) error {
			if calls == 1 {
				<-gate
			}
			return inner(calls)
		}
	}
	for i := 0; i < maxConcurrent; i++ {
		a, err := submit(i, fault.Schedule{}, gateWrap)
		if err != nil {
			t.Fatalf("gated submit %d: %v", i, err)
		}
		a.plan = nextPlan()
		all = append(all, a)
	}
	// The first queued session carries a stall far past StallAfter: once it
	// runs, it publishes nothing for that long, and the event that ends the
	// gap counts it.
	stallSched := fault.Schedule{Events: []fault.Event{
		{At: 10, Kind: fault.StallFault, Dur: 3 * stallAfter},
	}}
	stalled, err := submit(maxConcurrent, stallSched, nil)
	if err != nil {
		t.Fatalf("stall submit: %v", err)
	}
	stalled.plan = fault.ConsumerPlan{FreezeAfter: -1}
	all = append(all, stalled)
	for i := maxConcurrent + 1; i < maxConcurrent+maxQueue; i++ {
		a, err := submit(i, fault.Schedule{}, nil)
		if err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		a.plan = nextPlan()
		all = append(all, a)
	}
	const storm = 16
	for i := 0; i < storm; i++ {
		if _, err := submit(i, fault.Schedule{}, nil); !errors.Is(err, session.ErrShed) {
			t.Fatalf("storm submit %d: err = %v, want ErrShed", i, err)
		}
	}
	if got := mgr.Metrics().Shed; got != storm {
		t.Fatalf("Shed = %d, want %d", got, storm)
	}
	close(gate)

	// Phase 2 — seeded fault burst. Capacity churns as Phase 1 drains, so
	// shedding here is load-dependent: tolerate it, keep what was admitted.
	profile := fault.Profile{
		Horizon:   400,
		MaxStalls: 2,
		MaxStall:  200 * time.Microsecond,
		PError:    0.25,
		PCancel:   0.25,
	}
	for i := 0; i < 16; i++ {
		seed := int64(1000 + i)
		a, err := submit(i, fault.Generate(seed, profile), nil)
		if errors.Is(err, session.ErrShed) {
			continue
		}
		if err != nil {
			t.Fatalf("chaos submit seed %d: %v", seed, err)
		}
		a.plan = nextPlan()
		all = append(all, a)
	}

	// Consumers: one scripted subscriber per admitted session, concurrent
	// with execution. A frozen one stops reading, still subscribed, until a
	// second subscription has drained (the session has ended), then reads
	// what its channel kept.
	type observed struct {
		last session.Progress
		got  bool
		kept int // events a frozen subscription held past its freeze
	}
	results := make([]observed, len(all))
	var wg sync.WaitGroup
	for i, a := range all {
		wg.Add(1)
		go func(i int, a admitted) {
			defer wg.Done()
			ch, unsub := a.sess.Subscribe()
			defer unsub()
			received := 0
			for p := range ch {
				results[i] = observed{last: p, got: true}
				received++
				if a.plan.FreezeAfter >= 0 && received > a.plan.FreezeAfter {
					break
				}
				if a.plan.ReadDelay > 0 {
					time.Sleep(a.plan.ReadDelay)
				}
			}
			if a.plan.FreezeAfter < 0 {
				return
			}
			end, unsubEnd := a.sess.Subscribe()
			for range end {
			}
			unsubEnd()
			for p := range ch {
				results[i].last = p
				results[i].kept++
			}
		}(i, a)
	}
	allRead := make(chan struct{})
	go func() { wg.Wait(); close(allRead) }()
	select {
	case <-allRead:
	case <-time.After(30 * time.Second):
		for _, a := range all {
			if st := a.sess.Summary().State; !st.Terminal() {
				t.Errorf("session %s stuck in %s", a.sess.Info().ID, st)
			}
		}
		t.Fatal("consumers still reading after 30 s")
	}

	for i, a := range all {
		info := a.sess.Info()
		// Terminal state must match what the injector actually fired.
		var term *fault.Event
		for _, ev := range a.inj.Fired() {
			if ev.Kind != fault.StallFault {
				ev := ev
				term = &ev
			}
		}
		switch {
		case term == nil:
			if info.State != session.StateFinished {
				t.Errorf("%s [%s]: state %s with no terminal fault (err %v)", info.ID, info.Text, info.State, info.Error)
			}
		case term.Kind == fault.ErrorFault:
			if info.State != session.StateFailed || !strings.Contains(info.Error, fault.ErrInjected.Error()) {
				t.Errorf("%s: state %s err %v after injected error", info.ID, info.State, info.Error)
			}
			if info.Calls != term.At {
				t.Errorf("%s [%s]: calls %d, want exactly %d (error fault)", info.ID, info.Text, info.Calls, term.At)
			}
		case term.Kind == fault.CancelFault:
			// A cancel landing on the run's final counted call completes it.
			if info.State != session.StateCanceled && info.State != session.StateFinished {
				t.Errorf("%s: state %s after injected cancel", info.ID, info.State)
			}
			if info.Calls != term.At {
				t.Errorf("%s [%s]: calls %d, want exactly %d (cancel fault)", info.ID, info.Text, info.Calls, term.At)
			}
		}
		// Every consumer — eager, slow, or frozen — must have observed the
		// final event, a frozen one from the at most 16 events its channel
		// kept.
		if !results[i].got || !results[i].last.Final {
			t.Errorf("%s: consumer missed the final event (got=%v last=%+v)", info.ID, results[i].got, results[i].last)
			continue
		}
		if results[i].kept > 16 {
			t.Errorf("%s: frozen subscription kept %d events, want <= 16", info.ID, results[i].kept)
		}
		if !results[i].last.State.Terminal() {
			t.Errorf("%s: final event state %s not terminal", info.ID, results[i].last.State)
		}
		if info.State == session.StateFinished {
			if pm := results[i].last.Estimates["pmax"]; pm != 1.0 {
				t.Errorf("%s: final pmax = %v, want 1.0", info.ID, pm)
			}
		}
		// The recorded sample series must satisfy every estimator
		// invariant, fault-shortened or not.
		if smps := a.sess.Samples(); len(smps) > 0 {
			series := core.Series{
				Label:     info.ID + "/" + info.Text,
				Names:     []string{"dne", "pmax", "safe"},
				Samples:   smps,
				Completed: info.State == session.StateFinished,
				Total:     info.Calls,
				Mu:        info.Mu,
			}
			if err := series.Check(); err != nil {
				t.Errorf("sample series: %v", err)
			}
		}
	}

	met := mgr.Metrics()
	if met.StallEvents < 1 {
		t.Errorf("StallEvents = %d, want >= 1 (injected %v stall vs %v StallAfter)", met.StallEvents, 3*stallAfter, stallAfter)
	}
	if met.Admitted != int64(len(all)) {
		t.Errorf("Admitted = %d, want %d", met.Admitted, len(all))
	}
	if got := met.Completed + met.Canceled + met.Failed; got != met.Admitted {
		t.Errorf("terminal transitions %d != admitted %d (%+v)", got, met.Admitted, met)
	}
}
