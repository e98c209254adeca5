package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Schedule is a replayable set of fault events plus the seed that generated
// it (0 for hand-built schedules). Its String form is the replay format the
// chaos harness prints on failure; Parse round-trips it.
type Schedule struct {
	Seed   int64
	Events []Event
}

// sorted returns the events ordered by At (stable, so same-call events keep
// schedule order).
func (s Schedule) sorted() []Event {
	out := make([]Event, len(s.Events))
	copy(out, s.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String renders the replayable schedule format: semicolon-separated
// entries, `seed=N` first when a seed is recorded, then one `kind@call`
// entry per event with the kind's argument after a colon —
// `stall@123:500µs`, `error@456:disk gone`, `cancel@789`.
func (s Schedule) String() string {
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	for _, ev := range s.sorted() {
		switch ev.Kind {
		case StallFault:
			parts = append(parts, fmt.Sprintf("stall@%d:%s", ev.At, ev.Dur))
		case ErrorFault:
			parts = append(parts, fmt.Sprintf("error@%d:%s", ev.At, ev.Msg))
		default:
			parts = append(parts, fmt.Sprintf("%s@%d", ev.Kind, ev.At))
		}
	}
	return strings.Join(parts, ";")
}

// Profile shapes schedule generation for runs expected to perform about
// Horizon GetNext calls.
type Profile struct {
	// Horizon is the expected total GetNext calls of the run; generated
	// call indices fall in [1, Horizon].
	Horizon int64
	// MaxStalls is the number of stall events to draw from [0, MaxStalls].
	MaxStalls int
	// MaxStall bounds each stall's duration (drawn uniformly from
	// (0, MaxStall]).
	MaxStall time.Duration
	// PError is the probability of one terminal ErrorFault; PCancel the
	// probability of one CancelFault. At most one of the two is generated,
	// so a schedule's terminal fault is unambiguous.
	PError, PCancel float64
}

// Generate derives a randomized schedule deterministically from seed: the
// same seed and profile always produce the same schedule, so any failing
// chaos run is replayable from its printed seed alone.
func Generate(seed int64, p Profile) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed}
	horizon := p.Horizon
	if horizon < 1 {
		horizon = 1
	}
	if p.MaxStalls > 0 && p.MaxStall > 0 {
		for i, n := 0, rng.Intn(p.MaxStalls+1); i < n; i++ {
			s.Events = append(s.Events, Event{
				At:   1 + rng.Int63n(horizon),
				Kind: StallFault,
				Dur:  time.Duration(1 + rng.Int63n(int64(p.MaxStall))),
			})
		}
	}
	switch draw := rng.Float64(); {
	case draw < p.PError:
		s.Events = append(s.Events, Event{
			At:   1 + rng.Int63n(horizon),
			Kind: ErrorFault,
			Msg:  fmt.Sprintf("chaos op failure (seed %d)", seed),
		})
	case draw < p.PError+p.PCancel:
		s.Events = append(s.Events, Event{At: 1 + rng.Int63n(horizon), Kind: CancelFault})
	}
	return s
}
