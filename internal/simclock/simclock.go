// Package simclock provides the virtual time substrate for the doxing study.
//
// The paper's measurement spans two wall-clock collection periods: a six-week
// period in the summer of 2016 (before Facebook and Instagram deployed
// anti-abuse filters) and a seven-week period over the winter of 2016-17
// (after deployment). Everything in this repository that cares about time —
// post arrival, monitor schedules, account behaviour, deletion horizons —
// reads a Clock rather than time.Now, so studies replay identically.
package simclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Day is the granularity of the study: the paper's monitor schedule and all
// of its reported timing results are expressed in days.
const Day = 24 * time.Hour

// Period is a half-open interval [Start, End) of study time.
type Period struct {
	Name  string
	Start time.Time
	End   time.Time
}

// Paper collection periods (paper §3.1.1 / Table 4).
var (
	// Period1 is 7/20/2016 – 8/31/2016: pastebin.com only, pre-filter.
	Period1 = Period{
		Name:  "pre-filter",
		Start: date(2016, time.July, 20),
		End:   date(2016, time.August, 31),
	}
	// Period2 is 12/19/2016 – 2/6/2017: pastebin + 4chan + 8ch, post-filter.
	Period2 = Period{
		Name:  "post-filter",
		Start: date(2016, time.December, 19),
		End:   date(2017, time.February, 6),
	}
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// Days returns the number of whole days in the period.
func (p Period) Days() int {
	return int(p.End.Sub(p.Start) / Day)
}

// Contains reports whether t falls inside the period.
func (p Period) Contains(t time.Time) bool {
	return !t.Before(p.Start) && t.Before(p.End)
}

// DayStart returns the start of the period's nth day (0-based).
func (p Period) DayStart(n int) time.Time {
	return p.Start.Add(time.Duration(n) * Day)
}

// String implements fmt.Stringer.
func (p Period) String() string {
	return fmt.Sprintf("%s (%s – %s, %d days)", p.Name,
		p.Start.Format("2006-01-02"), p.End.Format("2006-01-02"), p.Days())
}

// Clock is a monotonic virtual clock. It is safe for concurrent use: the
// crawler, the site simulators and the account monitor all read it from
// separate goroutines while the study driver advances it. Readers load the
// latest published time without a lock; writers serialize on mu and
// publish each new time as a fresh value, so Now returns a whole published
// time, never a torn one, and never an earlier one than a previous Now.
type Clock struct {
	mu  sync.Mutex // serializes Advance and Set
	now atomic.Pointer[time.Time]
}

// NewClock returns a clock set to start.
func NewClock(start time.Time) *Clock {
	c := &Clock{}
	c.now.Store(&start)
	return c
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	return *c.now.Load()
}

// Advance moves the clock forward by d. Attempting to move backwards is a
// programming error and panics: study code relies on monotonicity.
func (c *Clock) Advance(d time.Duration) time.Time {
	if d < 0 {
		panic("simclock: cannot advance backwards")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now.Load().Add(d)
	c.now.Store(&t)
	return t
}

// Set jumps the clock to t, which must not be before the current time.
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Before(*c.now.Load()) {
		panic("simclock: cannot set clock backwards")
	}
	c.now.Store(&t)
}

// DaysSince returns the whole number of days elapsed from t to the clock's
// current time; negative when t is in the future.
func (c *Clock) DaysSince(t time.Time) int {
	return int(c.Now().Sub(t) / Day)
}
