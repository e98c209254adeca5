package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Parse reads the String format back into a Schedule.
func Parse(text string) (Schedule, error) {
	var s Schedule
	for _, part := range strings.Split(text, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(part, "seed="); ok {
			seed, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("fault: bad seed %q: %w", rest, err)
			}
			s.Seed = seed
			continue
		}
		kind, rest, ok := strings.Cut(part, "@")
		if !ok {
			return Schedule{}, fmt.Errorf("fault: bad schedule entry %q", part)
		}
		atText, arg, hasArg := strings.Cut(rest, ":")
		at, err := strconv.ParseInt(atText, 10, 64)
		if err != nil || at < 1 {
			return Schedule{}, fmt.Errorf("fault: bad call index in %q", part)
		}
		ev := Event{At: at, Kind: Kind(kind)}
		switch ev.Kind {
		case StallFault:
			d, err := time.ParseDuration(arg)
			if err != nil || !hasArg {
				return Schedule{}, fmt.Errorf("fault: bad stall duration in %q", part)
			}
			ev.Dur = d
		case ErrorFault:
			ev.Msg = arg
		case CancelFault:
			if hasArg {
				return Schedule{}, fmt.Errorf("fault: cancel takes no argument in %q", part)
			}
		default:
			return Schedule{}, fmt.Errorf("fault: unknown kind %q", kind)
		}
		s.Events = append(s.Events, ev)
	}
	return s, nil
}

// ConsumerPlan is the service-level analogue of an executor schedule: it
// scripts one progress subscriber's hostile behavior for the chaos harness.
// Slow and frozen consumers exercise the session layer's lossy latest-wins
// fan-out and its slow-subscriber eviction.
type ConsumerPlan struct {
	// ReadDelay is slept between channel receives (0 = read eagerly).
	ReadDelay time.Duration
	// FreezeAfter stops reading after this many received events, leaving
	// the subscription attached (< 0 = never freeze).
	FreezeAfter int
	// Reattach re-subscribes after the frozen subscription is evicted (or
	// the session ends), verifying the final event is still observable.
	Reattach bool
}

// ServiceProfile shapes service-level chaos generation.
type ServiceProfile struct {
	// Burst is the number of sessions submitted back-to-back (the
	// shed-storm size; admission capacity decides how many survive).
	Burst int
	// PSlowConsumer / PFrozenConsumer are per-session probabilities of a
	// hostile subscriber; the rest read eagerly.
	PSlowConsumer, PFrozenConsumer float64
	// MaxReadDelay bounds a slow consumer's per-event delay.
	MaxReadDelay time.Duration
}

// GenerateConsumers derives one ConsumerPlan per burst slot, deterministic
// in seed. Frozen consumers always reattach, so every generated plan ends
// by observing the session's final event.
func GenerateConsumers(seed int64, p ServiceProfile) []ConsumerPlan {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ConsumerPlan, p.Burst)
	for i := range out {
		switch draw := rng.Float64(); {
		case draw < p.PFrozenConsumer:
			out[i] = ConsumerPlan{FreezeAfter: rng.Intn(3), Reattach: true}
		case draw < p.PFrozenConsumer+p.PSlowConsumer:
			out[i] = ConsumerPlan{
				ReadDelay:   time.Duration(1 + rng.Int63n(int64(p.MaxReadDelay))),
				FreezeAfter: -1,
			}
		default:
			out[i] = ConsumerPlan{FreezeAfter: -1}
		}
	}
	return out
}
