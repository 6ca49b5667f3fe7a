package monitor

import (
	"time"

	"doxmeter/internal/netid"
	"doxmeter/internal/osn"
	"doxmeter/internal/simclock"
)

// ChangeStats aggregates Table 10 style status-change measurements over a
// set of histories: whether accounts ended more private or more public than
// first observed, and whether they changed at all.
type ChangeStats struct {
	Total       int // verified accounts with >= 2 observations
	MorePrivate int // last observed status more closed than first
	MorePublic  int // last observed status more open than first
	AnyChange   int // status differed between any two consecutive checks
}

// Rate helpers for table rendering.
func (s ChangeStats) MorePrivateRate() float64 { return rate(s.MorePrivate, s.Total) }

// MorePublicRate is the fraction ending more open than first observed.
func (s ChangeStats) MorePublicRate() float64 { return rate(s.MorePublic, s.Total) }

// AnyChangeRate is the fraction that changed status at least once.
func (s ChangeStats) AnyChangeRate() float64 { return rate(s.AnyChange, s.Total) }

func rate(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Filter selects histories.
type Filter func(*History) bool

// ByNetwork filters to one network's non-control accounts.
func ByNetwork(n netid.Network) Filter {
	return func(h *History) bool { return !h.Control && h.Ref.Network == n }
}

// Controls filters to the random control sample.
func Controls() Filter {
	return func(h *History) bool { return h.Control }
}

// DoxedDuring filters non-control accounts whose dox appeared in the given
// period.
func DoxedDuring(p simclock.Period, n netid.Network) Filter {
	return func(h *History) bool {
		return !h.Control && h.Ref.Network == n && p.Contains(h.DoxSeenAt)
	}
}

// Active restricts a filter to accounts whose first public observation
// showed at least minPosts of visible activity — the comparison the paper
// names as future work (§6.2.1: comparing only active doxed accounts
// against active typical accounts).
func Active(minPosts int, inner Filter) Filter {
	return func(h *History) bool {
		return inner(h) && h.Activity >= minPosts
	}
}

// Changes computes ChangeStats over the histories passing the filter.
func Changes(histories []*History, f Filter) ChangeStats {
	var s ChangeStats
	for _, h := range histories {
		if !f(h) || !h.Verified || len(h.Obs) < 2 {
			continue
		}
		s.Total++
		first, _ := h.FirstStatus()
		last, _ := h.LastStatus()
		if last > first {
			s.MorePrivate++
		}
		if last < first {
			s.MorePublic++
		}
		prev := h.Obs[0].Status
		for _, o := range h.Obs[1:] {
			if o.Status != prev {
				s.AnyChange++
				break
			}
			prev = o.Status
		}
	}
	return s
}

// ChangeTiming measures how quickly accounts locked down after appearing in
// a dox (§6.3: 35.8% of more-private changes within 24 hours, 90.6% within
// seven days).
type ChangeTiming struct {
	TotalMorePrivate int
	Within1Day       int
	Within7Days      int
}

// Timing computes ChangeTiming over histories passing the filter.
func Timing(histories []*History, f Filter) ChangeTiming {
	var t ChangeTiming
	for _, h := range histories {
		if !f(h) || !h.Verified || len(h.Obs) < 2 {
			continue
		}
		prev := h.Obs[0].Status
		for _, o := range h.Obs[1:] {
			if o.Status > prev {
				t.TotalMorePrivate++
				d := o.Time.Sub(h.DoxSeenAt)
				if d <= 24*time.Hour+time.Minute {
					t.Within1Day++
				}
				if d <= 7*simclock.Day+time.Minute {
					t.Within7Days++
				}
				break
			}
			prev = o.Status
		}
	}
	return t
}

// StripPoint is one day of a Figure 3 status strip.
type StripPoint struct {
	Day      int
	Public   int
	Private  int
	Inactive int
}

// Strip builds the Figure 3 data: for accounts that changed status within
// the first 14 days, the daily status counts from the dox appearance
// (day 0) through day 14.
func Strip(histories []*History, f Filter) []StripPoint {
	var changers []*History
	for _, h := range histories {
		if !f(h) || !h.Verified || len(h.Obs) < 2 {
			continue
		}
		if changed, _ := h.ChangedWithin(14); changed {
			changers = append(changers, h)
		}
	}
	out := make([]StripPoint, 15)
	for day := 0; day <= 14; day++ {
		out[day].Day = day
		for _, h := range changers {
			st, ok := h.StatusOnDay(day)
			if !ok {
				continue
			}
			switch st {
			case osn.Public:
				out[day].Public++
			case osn.Private:
				out[day].Private++
			case osn.Inactive:
				out[day].Inactive++
			}
		}
	}
	return out
}

// ChangersWithin counts accounts that changed status within the given
// number of days of the dox appearing (the Figure 3 population).
func ChangersWithin(histories []*History, f Filter, days int) (changed, total int) {
	for _, h := range histories {
		if !f(h) || !h.Verified || len(h.Obs) < 2 {
			continue
		}
		total++
		if ok, _ := h.ChangedWithin(days); ok {
			changed++
		}
	}
	return changed, total
}

// CompromiseStats explains the "more public" column: of the accounts whose
// observed status ever moved toward public, how many showed defacement
// (attacker takeover, paper footnote 7 / §6.2.2's first hypothesis).
type CompromiseStats struct {
	MorePublic int // accounts observed moving private -> public
	Defaced    int // of those, profiles carrying a takeover banner
}

// Compromises computes CompromiseStats over histories passing the filter.
func Compromises(histories []*History, f Filter) CompromiseStats {
	var s CompromiseStats
	for _, h := range histories {
		if !f(h) || !h.Verified || len(h.Obs) < 2 {
			continue
		}
		opened, defaced := false, false
		prev := h.Obs[0].Status
		for _, o := range h.Obs[1:] {
			if o.Status < prev {
				opened = true
			}
			if o.Defaced {
				defaced = true
			}
			prev = o.Status
		}
		if opened {
			s.MorePublic++
			if defaced {
				s.Defaced++
			}
		}
	}
	return s
}

// CommenterStats summarizes the §5.3.2 comment analysis: total comments
// observed, distinct commenters, and commenters seen on more than one
// account.
type CommenterStats struct {
	Comments          int
	Commenters        int
	CrossAccountUsers int
}

// Commenters analyzes all observed comments across doxed accounts.
func Commenters(histories []*History) CommenterStats {
	type seenOn map[string]bool
	byAuthor := map[string]seenOn{}
	comments := 0
	for _, h := range histories {
		if h.Control {
			continue
		}
		// Use the final observation's comment snapshot per account: it is
		// cumulative, so earlier snapshots are subsets.
		var last []CommentObs
		for _, o := range h.Obs {
			if len(o.Comments) > 0 {
				last = o.Comments
			}
		}
		comments += len(last)
		for _, c := range last {
			if byAuthor[c.Author] == nil {
				byAuthor[c.Author] = seenOn{}
			}
			byAuthor[c.Author][h.Ref.Key()] = true
		}
	}
	stats := CommenterStats{Comments: comments, Commenters: len(byAuthor)}
	for _, accounts := range byAuthor {
		if len(accounts) > 1 {
			stats.CrossAccountUsers++
		}
	}
	return stats
}

// VerifiedCount reports how many tracked accounts passed verification and
// how many were dropped as nonexistent.
func VerifiedCount(histories []*History) (verified, nonexistent int) {
	for _, h := range histories {
		if h.Control {
			continue
		}
		if h.Verified {
			verified++
		} else if len(h.Obs) == 0 && h.finished {
			nonexistent++
		}
	}
	return verified, nonexistent
}
