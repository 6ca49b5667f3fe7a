package simclock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPaperPeriods(t *testing.T) {
	// Paper §3.1.1: "six week period from 7/20/2016 to 8/31/2016" and
	// "seven week period of 12/19/2016 to 2/6/2017".
	if d := Period1.Days(); d != 42 {
		t.Errorf("Period1 days = %d, want 42 (six weeks)", d)
	}
	if d := Period2.Days(); d != 49 {
		t.Errorf("Period2 days = %d, want 49 (seven weeks)", d)
	}
	if !Period2.Start.After(Period1.End) {
		t.Error("Period2 must start after Period1 ends")
	}
}

func TestPeriodContains(t *testing.T) {
	if !Period1.Contains(Period1.Start) {
		t.Error("period should contain its start")
	}
	if Period1.Contains(Period1.End) {
		t.Error("period should not contain its end (half-open)")
	}
	mid := Period1.Start.Add(10 * Day)
	if !Period1.Contains(mid) {
		t.Error("period should contain interior point")
	}
	if Period1.Contains(Period2.Start) {
		t.Error("Period1 should not contain Period2's start")
	}
}

func TestPeriodDayStart(t *testing.T) {
	d0 := Period1.DayStart(0)
	if !d0.Equal(Period1.Start) {
		t.Errorf("DayStart(0) = %v, want period start", d0)
	}
	d7 := Period1.DayStart(7)
	if got := d7.Sub(Period1.Start); got != 7*Day {
		t.Errorf("DayStart(7) offset = %v, want 7 days", got)
	}
}

func TestPeriodString(t *testing.T) {
	s := Period1.String()
	if s == "" {
		t.Fatal("empty period string")
	}
	for _, want := range []string{"pre-filter", "2016-07-20", "2016-08-31", "42"} {
		if !contains(s, want) {
			t.Errorf("Period1.String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(Period1.Start)
	if !c.Now().Equal(Period1.Start) {
		t.Fatal("clock not initialized to start")
	}
	c.Advance(3 * Day)
	if got := c.DaysSince(Period1.Start); got != 3 {
		t.Fatalf("DaysSince = %d, want 3", got)
	}
	c.Advance(12 * time.Hour)
	if got := c.DaysSince(Period1.Start); got != 3 {
		t.Fatalf("DaysSince after half day = %d, want 3 (whole days)", got)
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	c := NewClock(Period1.Start)
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestClockSetBackwardsPanics(t *testing.T) {
	c := NewClock(Period1.Start.Add(Day))
	defer func() {
		if recover() == nil {
			t.Fatal("Set(backwards) did not panic")
		}
	}()
	c.Set(Period1.Start)
}

func TestClockConcurrentReads(t *testing.T) {
	c := NewClock(Period1.Start)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.Now()
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		c.Advance(time.Minute)
	}
	close(stop)
	wg.Wait()
	if got := c.Now().Sub(Period1.Start); got != 1000*time.Minute {
		t.Fatalf("advanced %v, want 1000m", got)
	}
}

// TestClockNowPublishedMonotonic: readers racing Advance and Set see only
// times a writer published (whole days after the start, here) and never
// a time earlier than one they already read.
func TestClockNowPublishedMonotonic(t *testing.T) {
	const steps = 2000
	start := Period1.Start
	c := NewClock(start)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := start
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := c.Now()
				off := now.Sub(start)
				if off%Day != 0 || off < 0 || off > steps*Day || now.Location() != time.UTC {
					errs <- fmt.Errorf("Now = %v, which no writer published", now)
					return
				}
				if now.Before(last) {
					errs <- fmt.Errorf("Now went backwards: %v after %v", now, last)
					return
				}
				last = now
			}
		}()
	}
	for i := 1; i <= steps; i++ {
		if i%2 == 0 {
			c.Set(start.Add(time.Duration(i) * Day))
		} else {
			c.Advance(Day)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Now().Sub(start); got != steps*Day {
		t.Fatalf("clock at %v after %d steps, want %v", got, steps, steps*Day)
	}
}
