package session

import (
	"math/rand"
	"testing"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/tpch"
)

// TestStressConcurrentTPCHSessions is the subsystem's acceptance stress
// test: ≥32 TPC-H queries in flight simultaneously through one Manager,
// every session continuously sampling itself, a random
// subset canceled mid-flight, all under -race in CI.
//
// Every session's recorded series — finished, or canceled mid-run and judged
// against its call count at abort — must pass the one series checker,
// core.Series, as it must hold for concurrently-observed executions; a
// finished session must have samples and a final progress event; and the
// registry and metrics must agree with the per-session terminal states.
func TestStressConcurrentTPCHSessions(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 11})
	const nSessions = 48
	m := New(cat, Config{
		MaxConcurrent:  32,
		MaxQueue:       nSessions,
		SampleInterval: 100 * time.Microsecond,
	})
	defer m.Close()

	rng := rand.New(rand.NewSource(1))
	queries := tpch.Queries()
	sessions := make([]*Session, 0, nSessions)
	for i := 0; i < nSessions; i++ {
		q := queries[i%len(queries)]
		op, err := tpch.BuildQuery(cat, q.Num)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.SubmitPlan(op, q.Desc, SubmitOptions{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		sessions = append(sessions, s)
	}

	// Cancel ~1/4 of the sessions mid-flight, from a separate goroutine, at
	// random times while the fleet races.
	cancelDone := make(chan struct{})
	var toCancel []string
	for _, s := range sessions {
		if rng.Intn(4) == 0 {
			toCancel = append(toCancel, s.id)
		}
	}
	go func() {
		defer close(cancelDone)
		for _, id := range toCancel {
			time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
			if _, err := m.Cancel(id, "stress cancel"); err != nil {
				t.Errorf("cancel %s: %v", id, err)
			}
		}
	}()

	for _, s := range sessions {
		waitTerminal(t, s)
	}
	<-cancelDone

	var finished, canceled int
	for _, s := range sessions {
		in := s.Info()
		switch in.State {
		case StateFinished:
			finished++
			if len(s.Samples()) == 0 || in.Progress == nil || !in.Progress.Final {
				t.Fatalf("%s: finished without samples or a final progress event", s.id)
			}
		case StateCanceled:
			canceled++
		default:
			t.Fatalf("%s (%s): unexpected terminal state %s (err %v)",
				s.id, s.text, in.State, s.Info().Error)
		}
		series := core.Series{
			Label:     s.id + "/" + s.text,
			Names:     s.estNames,
			Samples:   s.Samples(),
			Completed: in.State == StateFinished,
			Total:     in.Calls,
			Mu:        in.Mu,
		}
		if err := series.Check(); err != nil {
			t.Fatal(err)
		}
	}

	mt := m.Metrics()
	if int(mt.Completed) != finished || int(mt.Canceled) != canceled {
		t.Fatalf("metrics %+v disagree with states (finished %d, canceled %d)",
			mt, finished, canceled)
	}
	if mt.Admitted != nSessions {
		t.Fatalf("admitted = %d", mt.Admitted)
	}
	if mt.Active != 0 || mt.Queued != 0 {
		t.Fatalf("gauges not drained: %+v", mt)
	}
	t.Logf("stress: %d finished, %d canceled (cancel latency avg %v max %v)",
		finished, canceled, mt.CancelLatencyAvg, mt.CancelLatencyMax)
}
