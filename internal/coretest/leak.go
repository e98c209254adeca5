package coretest

import (
	"runtime"
	"testing"
	"time"
)

// CheckNoGoroutineLeak runs f and fails the test if goroutines f started
// outlive it: runtime.NumGoroutine before, and after with up to two seconds
// for goroutines already on their way out to settle. f must stop what it
// starts (Close the operator, Stop the monitor, Close the manager) — the
// check is that stopping really does end every goroutine. Not for tests
// that run in parallel with others.
func CheckNoGoroutineLeak(t testing.TB, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
