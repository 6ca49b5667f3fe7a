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

// TestWaitReportsLeak: a goroutine that never exits fails the check
// once the deadline passes.
func TestWaitReportsLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	rec := &recordTB{TB: t}
	wait(rec, before, 50*time.Millisecond)
	if !strings.Contains(rec.msg, "goroutines still running") {
		t.Fatalf("leaked goroutine not reported; Fatalf format = %q", rec.msg)
	}
}
