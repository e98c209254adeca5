package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sqlprogress/internal/exec"
)

// Kind enumerates the executor-level fault kinds.
type Kind string

// Executor-level fault kinds.
const (
	// StallFault blocks the execution goroutine for Event.Dur at the
	// triggering call — an operator latency spike (slow I/O, lock wait).
	StallFault Kind = "stall"
	// ErrorFault aborts the run at the triggering call with an OpError —
	// a forced operator failure (lost page, broken pipe).
	ErrorFault Kind = "error"
	// CancelFault requests cancellation at the triggering call; the run
	// stops at the next counted call with exec.ErrCanceled, so the final
	// call count is exactly Event.At.
	CancelFault Kind = "cancel"
)

// Event is one scheduled fault. It triggers the first time the global
// GetNext counter reaches At (events whose At exceeds the run's total call
// count never fire).
type Event struct {
	// At is the global GetNext call count that triggers the event (1-based:
	// At = 1 fires during the first counted call).
	At   int64
	Kind Kind
	// Dur is the stall duration (StallFault only).
	Dur time.Duration
	// Msg is the injected failure message (ErrorFault only).
	Msg string
}

// ErrInjected is the sentinel every injected operator error matches via
// errors.Is, letting callers distinguish scheduled failures from organic
// ones.
var ErrInjected = errors.New("fault: injected operator error")

// OpError is the error an ErrorFault surfaces through the executor.
type OpError struct {
	// At is the call count the error was injected at.
	At int64
	// Msg is the schedule's failure message.
	Msg string
}

// Error implements error.
func (e *OpError) Error() string {
	return fmt.Sprintf("fault: injected operator error at call %d: %s", e.At, e.Msg)
}

// Is reports a match against ErrInjected.
func (e *OpError) Is(target error) bool { return target == ErrInjected }

// Injector arms one schedule against one execution context. It is
// single-use: the event cursor advances as the run consumes the schedule,
// and Fired reports what actually triggered. Build a fresh Injector per
// execution.
type Injector struct {
	mu     sync.Mutex
	events []Event
	next   int
	fired  []Event
}

// NewInjector builds an injector for the schedule. Events fire in At order
// (ties in schedule order).
func NewInjector(s Schedule) *Injector {
	return &Injector{events: s.sorted()}
}

// Arm installs the injector on ctx (via exec.Ctx.Inject). Must be called
// before the run starts. The hook fires on the run's goroutine, which need
// not be the one that reads Fired (a session runs its plan on a goroutine of
// its own), so the event cursor is mutex-guarded; stalls sleep outside the
// lock, so a reader never waits out a stall.
func (in *Injector) Arm(ctx *exec.Ctx) {
	ctx.Inject = func(calls int64) error {
		var stall time.Duration
		var err error
		in.mu.Lock()
		for in.next < len(in.events) && in.events[in.next].At <= calls {
			ev := in.events[in.next]
			in.next++
			in.fired = append(in.fired, ev)
			switch ev.Kind {
			case StallFault:
				stall += ev.Dur
			case CancelFault:
				ctx.Cancel()
			case ErrorFault:
				err = &OpError{At: calls, Msg: ev.Msg}
			}
			if err != nil {
				break
			}
		}
		in.mu.Unlock()
		if stall > 0 {
			time.Sleep(stall)
		}
		return err
	}
}

// Fired returns the events that actually triggered, in firing order. Valid
// once the run has finished.
func (in *Injector) Fired() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}
