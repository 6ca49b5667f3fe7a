package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMarkWaitsForExit: a goroutine that exits a little after
// cancellation is waited for, not reported.
func TestMarkWaitsForExit(t *testing.T) {
	settle := Mark(t)
	stop := make(chan struct{})
	go func() {
		<-stop
		time.Sleep(20 * time.Millisecond)
	}()
	close(stop)
	settle()
}

// recordTB captures a Fatalf instead of ending the test.
type recordTB struct {
	testing.TB
	msg string
}

func (r *recordTB) Helper() {}

func (r *recordTB) Fatalf(format string, args ...any) {
	r.msg = format
}

// TestWaitReportsLeak: goroutines that never exit fail the check once
// the deadline passes. A goroutine of an earlier test (or of this test's
// previous -count run) may still be exiting when the test starts, and
// once it exits a single leak would bring the count back to a baseline
// read before it. So the baseline is read only once the count has held
// still, and the test leaks more goroutines than a straggler could mask.
func TestWaitReportsLeak(t *testing.T) {
	before := steadyCount()
	stop := make(chan struct{})
	defer close(stop)
	for range 4 {
		go func() { <-stop }()
	}
	rec := &recordTB{TB: t}
	wait(rec, before, 50*time.Millisecond)
	if !strings.Contains(rec.msg, "goroutines still running") {
		t.Fatalf("leaked goroutines not reported; Fatalf format = %q", rec.msg)
	}
}

// steadyCount returns runtime.NumGoroutine once it has read the same value
// ten times in a row, a millisecond apart.
func steadyCount() int {
	n, same := runtime.NumGoroutine(), 1
	for same < 10 {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}
