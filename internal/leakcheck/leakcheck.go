// Package leakcheck is a test helper for the robustness contract that
// cancellation leaks no goroutines: a test marks the goroutine count
// before it starts work, cancels, and then waits for the count to come
// back down.
//
// The count is process-wide, so a test using it must not run in parallel
// with others (paused parallel tests are fine: their goroutines are
// already counted and stay put).
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// timeout bounds how long a check waits for goroutines to exit.
const timeout = 5 * time.Second

// Mark records the current goroutine count and returns the check: it
// waits until the count is back to at most the recorded one, polling the
// count itself, and fails t with every goroutine's stack if it is still
// higher after five seconds.
func Mark(t testing.TB) (settle func()) {
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		wait(t, before, timeout)
	}
}

func wait(t testing.TB, before int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for pause := 100 * time.Microsecond; ; pause = min(2*pause, 10*time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still running %v later, want at most %d:\n%s", n, timeout, before, buf)
			return
		}
		runtime.Gosched()
		time.Sleep(pause)
	}
}
