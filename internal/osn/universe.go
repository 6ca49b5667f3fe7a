// Package osn simulates the online social networks whose accounts the
// paper monitors: account existence, public/private/inactive status over
// time, comment streams, and — for Instagram — a monotonically increasing
// numeric ID space that permits uniform random sampling of "typical"
// accounts (§6.2.1).
//
// Account behaviour is generative and causal: when a dox first appears on a
// text-sharing site, the universe draws the victim's reaction (lockdown,
// opening, reversal, timing) from hazards calibrated to Table 10 and §6.3.
// The monitor then *measures* those reactions through the same HTTP-scrape
// interface a live study would use; no reported number is copied through.
package osn

import (
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"doxmeter/internal/netid"
	"doxmeter/internal/randutil"
	"doxmeter/internal/sim"
	"doxmeter/internal/simclock"
)

// Status is an account's visibility state.
type Status int

// Statuses, ordered from most to least open.
const (
	Public Status = iota
	Private
	Inactive
)

// Valid reports whether s is one of the statuses above.
func (s Status) Valid() bool { return s >= Public && s <= Inactive }

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Private:
		return "private"
	case Inactive:
		return "inactive"
	default:
		return "public"
	}
}

// transition is one scheduled status change.
type transition struct {
	at time.Time
	to Status
}

// Account is one simulated social-network account.
type Account struct {
	Ref       netid.Ref
	NumericID int64 // Instagram-style numeric ID; 0 elsewhere
	VictimID  int   // owning victim, -1 for control accounts
	// Activity is the account's visible post count — the "activity
	// metric" the paper names as future work (§6.2.1). Victim accounts
	// derive it from their comment stream; control accounts draw it
	// deterministically (many are abandoned, with zero activity).
	Activity int

	initial     Status
	transitions []transition // sorted by time
	doxedAt     time.Time    // zero until doxed
	// compromisedAt marks an attacker takeover: the account flips public
	// and its profile is defaced (paper footnote 7: "we manually found
	// two victims' accounts that had clearly been compromised and
	// defaced"). Zero when never compromised.
	compromisedAt time.Time
	comments      []Comment
}

// CompromisedAt returns when the account was taken over (zero if never).
func (a *Account) CompromisedAt() time.Time { return a.compromisedAt }

// Comment is one public comment on an account's posts.
type Comment struct {
	Author  string
	Text    string
	Posted  time.Time
	Abusive bool
}

// StatusAt returns the account's status at an instant.
func (a *Account) StatusAt(t time.Time) Status {
	st := a.initial
	for _, tr := range a.transitions {
		if tr.at.After(t) {
			break
		}
		st = tr.to
	}
	return st
}

// DoxedAt returns when the account's owner was first doxed (zero if never).
func (a *Account) DoxedAt() time.Time { return a.doxedAt }

// Universe is the collection of simulated networks. Safe for concurrent
// reads; RecordDox serializes internally. The account maps are fixed at
// construction, so lookups take no lock.
type Universe struct {
	clock *simclock.Clock

	mu       sync.Mutex          // serializes RecordDox and TriggerAbuse (rng, account reactions)
	accounts map[string]*Account // netid.Ref.Key() -> account
	igByID   map[int64]*Account
	igMaxID  int64
	rng      *rand.Rand
	seed     int64

	// controls memoizes ControlAccount: numeric ID -> *Account, each
	// derived once on first request and shared read-only afterwards.
	controls sync.Map
}

// NewUniverse registers every victim OSN account from the world. Initial
// statuses are drawn here; reactions are drawn when doxes appear.
func NewUniverse(clock *simclock.Clock, w *sim.World, seed int64) *Universe {
	u := &Universe{
		clock:    clock,
		accounts: make(map[string]*Account),
		igByID:   make(map[int64]*Account),
		igMaxID:  600_000_000, // "Instagram claims over 600 million active users"
		rng:      randutil.New(seed),
		seed:     seed,
	}
	// Victims in deterministic order.
	victims := make([]*sim.Victim, len(w.Victims))
	copy(victims, w.Victims)
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	nextIG := int64(1_000_000)
	for _, v := range victims {
		for _, n := range netid.All() {
			user, ok := v.OSN[n]
			if !ok {
				continue
			}
			a := &Account{Ref: netid.Ref{Network: n, Username: user}, VictimID: v.ID}
			switch x := u.rng.Float64(); {
			case x < initialInactiveRate:
				a.initial = Inactive
			case x < initialInactiveRate+initialPrivateRate:
				a.initial = Private
			default:
				a.initial = Public
			}
			if n == netid.Instagram {
				nextIG += int64(1 + u.rng.Intn(5000))
				a.NumericID = nextIG
				u.igByID[a.NumericID] = a
			}
			u.generateComments(a, v)
			u.accounts[a.Ref.Key()] = a
		}
	}
	return u
}

// Lookup finds a registered account.
func (u *Universe) Lookup(ref netid.Ref) (*Account, bool) {
	a, ok := u.accounts[ref.Key()]
	return a, ok
}

// Accounts returns all registered accounts (stable order).
func (u *Universe) Accounts() []*Account {
	keys := make([]string, 0, len(u.accounts))
	for k := range u.accounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Account, len(keys))
	for i, k := range keys {
		out[i] = u.accounts[k]
	}
	return out
}

// RecordDox informs the universe that an account reference appeared in a
// publicly posted dox at time t. The first report for each account draws
// the owner's reaction; later reports are ignored (reposts). Unknown
// references (fabricated accounts in joke doxes, extraction noise) are
// ignored — they simply do not exist.
func (u *Universe) RecordDox(ref netid.Ref, t time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	a, ok := u.accounts[ref.Key()]
	if !ok || !a.doxedAt.IsZero() {
		return
	}
	a.doxedAt = t
	u.planReaction(a, t)
}

// planReaction draws and schedules the owner's response to being doxed.
func (u *Universe) planReaction(a *Account, t time.Time) {
	params, ok := reactions[a.Ref.Network]
	if !ok {
		return // Skype/Google+/Twitch are not monitored or modeled
	}
	p := params[EraAt(a.Ref.Network, t)]
	r := u.rng
	delay := sampleDelay(r, delayDays)
	switch a.StatusAt(t) {
	case Public:
		if randutil.Bool(r, p.Down) {
			to := Private
			if randutil.Bool(r, 0.35) {
				to = Inactive // delete outright
			}
			lockAt := t.Add(time.Duration(delay) * simclock.Day).Add(time.Duration(r.Intn(24)) * time.Hour)
			a.transitions = append(a.transitions, transition{at: lockAt, to: to})
			if to == Private && randutil.Bool(r, p.Revert) {
				back := lockAt.Add(time.Duration(sampleDelay(r, revertDelayDays)) * simclock.Day)
				a.transitions = append(a.transitions, transition{at: back, to: Public})
			}
		}
	case Private:
		switch {
		case randutil.Bool(r, p.Up):
			// Opens up — compromise, or reopening after a lockdown that
			// predates our first observation of a reposted dox (§6.2.2).
			openAt := t.Add(time.Duration(delay) * simclock.Day).Add(time.Duration(r.Intn(24)) * time.Hour)
			a.transitions = append(a.transitions, transition{at: openAt, to: Public})
			if randutil.Bool(r, 0.3) {
				// Attacker takeover: the dox disclosed enough (email,
				// password reuse) to seize the account; the profile is
				// defaced from openAt (footnote 7).
				a.compromisedAt = openAt
			}
		case randutil.Bool(r, p.Down):
			lockAt := t.Add(time.Duration(delay) * simclock.Day)
			a.transitions = append(a.transitions, transition{at: lockAt, to: Inactive})
		}
	case Inactive:
		// Dead accounts stay dead.
	}
	sort.Slice(a.transitions, func(i, j int) bool { return a.transitions[i].at.Before(a.transitions[j].at) })
}

func sampleDelay(r *rand.Rand, table []struct {
	day    int
	weight float64
}) int {
	weights := make([]float64, len(table))
	for i, e := range table {
		weights[i] = e.weight
	}
	return table[randutil.Weighted(r, weights)].day
}

// generateComments fills the account's public comment stream. Each account
// has a small pool of recurring commenters (the account's friends), so
// commenters average several comments each — as the paper measured (33,570
// comments from 9,792 commenters). Commenter handles are derived from the
// account key, so no commenter ever appears on two accounts, reproducing
// the §5.3.2 null result honestly at the generator level.
func (u *Universe) generateComments(a *Account, v *sim.Victim) {
	r := randutil.Derive(u.rng, "comments:"+a.Ref.Key())
	n := randutil.Poisson(r, 18)
	poolSize := 1 + n/3
	pool := make([]string, poolSize)
	var hb [16]byte
	for i := range pool {
		pool[i] = string(appendCommenter(hb[:0], r, a.Ref.Key(), i))
	}
	base := simclock.Period1.Start.Add(-time.Duration(r.Intn(60)) * simclock.Day)
	for i := 0; i < n; i++ {
		a.comments = append(a.comments, Comment{
			Author: randutil.Pick(r, pool),
			Text:   randutil.Pick(r, benignComments),
			Posted: base.Add(time.Duration(r.Intn(200*24)) * time.Hour),
		})
	}
	sort.Slice(a.comments, func(i, j int) bool { return a.comments[i].Posted.Before(a.comments[j].Posted) })
	// Doxed-population accounts skew low-to-no activity (§6.2.1: "many of
	// the Instagram accounts referenced in the dox files appeared to have
	// low-to-no activity").
	if randutil.Bool(r, 0.35) {
		a.Activity = 0
	} else {
		a.Activity = n + r.Intn(20)
	}
}

// addAbuseComments appends harassment comments arriving after a dox; the
// volume depends on the network's filtering era.
func (u *Universe) addAbuseComments(a *Account, doxAt time.Time) {
	r := randutil.Derive(u.rng, "abuse:"+a.Ref.Key())
	mean := 6.0
	if EraAt(a.Ref.Network, doxAt) == PostFilter {
		mean = 1.5 // filters suppress most abusive comments
	}
	n := randutil.Poisson(r, mean)
	var hb [16]byte
	for i := 0; i < n; i++ {
		a.comments = append(a.comments, Comment{
			Author:  string(appendCommenter(hb[:0], r, a.Ref.Key(), 1000+i)),
			Text:    randutil.Pick(r, abusiveComments),
			Posted:  doxAt.Add(time.Duration(r.Intn(10*24)) * time.Hour),
			Abusive: true,
		})
	}
	sort.Slice(a.comments, func(i, j int) bool { return a.comments[i].Posted.Before(a.comments[j].Posted) })
}

// CommentsAt returns the comments visible at an instant (public accounts
// only; the scraper enforces that).
func (a *Account) CommentsAt(t time.Time) []Comment {
	var out []Comment
	for _, c := range a.comments {
		if !c.Posted.After(t) {
			out = append(out, c)
		}
	}
	return out
}

// appendCommenter appends one derived commenter handle ("word_hhhhhhh") to
// dst: a 5-letter word from r followed by a 7-hex-digit FNV-1a tag of
// key/i. Byte stream and draw sequence match the former
// Sprintf("%s_%s", LowerWord(r,5), shortHash(key,i)) formulation exactly;
// the hash folds the "%s/%d" Fprintf bytes inline.
func appendCommenter(dst []byte, r *rand.Rand, key string, i int) []byte {
	dst = randutil.AppendLowerWord(r, dst, 5)
	dst = append(dst, '_')
	h := uint32(2166136261)
	for j := 0; j < len(key); j++ {
		h = (h ^ uint32(key[j])) * 16777619
	}
	h = (h ^ '/') * 16777619
	var ib [20]byte
	for _, c := range strconv.AppendInt(ib[:0], int64(i), 10) {
		h = (h ^ uint32(c)) * 16777619
	}
	h &= 0xfffffff
	const hexdig = "0123456789abcdef"
	for s := 24; s >= 0; s -= 4 {
		dst = append(dst, hexdig[h>>uint(s)&0xf])
	}
	return dst
}

var benignComments = []string{
	"nice shot", "love this", "where is this?", "so cool", "miss you man",
	"haha classic", "first", "this is great", "goals", "sick edit",
	"what camera do you use", "happy birthday!!", "clean", "W", "fire",
}

var abusiveComments = []string{
	"we know where you live now", "nice house on maple street lol",
	"check pastebin everyone knows", "you cant hide anymore",
	"hope you like your new fame", "should have kept your mouth shut",
	"your number is everywhere now", "delete your account",
}

// ControlAccount resolves an Instagram numeric ID to an account for random
// sampling. Victim accounts resolve to themselves; any other ID in range
// resolves to a deterministic synthetic "typical" account whose behaviour
// carries only background churn. The bool is false for IDs beyond the
// registered space (unallocated).
//
// A synthetic account is derived on its ID's first request and memoized:
// the control sample is re-scraped on every sweep, and re-deriving would
// reseed a 5KB math/rand source per scrape. Synthetic accounts never
// change after derivation, so concurrent callers share them read-only.
func (u *Universe) ControlAccount(id int64) (*Account, bool) {
	if id <= 0 || id > u.igMaxID {
		return nil, false
	}
	if a, ok := u.igByID[id]; ok {
		return a, true
	}
	if a, ok := u.controls.Load(id); ok {
		return a.(*Account), true
	}
	a, _ := u.controls.LoadOrStore(id, u.deriveControl(id))
	return a.(*Account), true
}

// deriveControl builds the synthetic control account for id. Its seed is
// FNV-1a over "ig-control-<id>-<seed>", so the account is a pure function
// of the ID and the universe seed.
func (u *Universe) deriveControl(id int64) *Account {
	var kb [48]byte
	key := strconv.AppendInt(append(kb[:0], "ig-control-"...), id, 10)
	key = strconv.AppendInt(append(key, '-'), u.seed, 10)
	hv := uint64(14695981039346656037)
	for _, c := range key {
		hv ^= uint64(c)
		hv *= 1099511628211
	}
	r := randutil.New(int64(hv))
	a := &Account{
		Ref: netid.Ref{
			Network:  netid.Instagram,
			Username: string(strconv.AppendInt(append(kb[:0], "user"...), id, 10)),
		},
		NumericID: id,
		VictimID:  -1,
	}
	switch x := r.Float64(); {
	case x < 0.06:
		a.initial = Inactive // abandoned/banned long ago
	case x < 0.06+0.30:
		a.initial = Private // Instagram's large private population
	default:
		a.initial = Public
	}
	// Random-ID sampling hits many abandoned accounts (the paper's stated
	// limitation of the control sample).
	if randutil.Bool(r, 0.45) {
		a.Activity = 0
	} else {
		a.Activity = 1 + r.Intn(80)
	}
	// Background churn over the study window (Table 10 "Default" row).
	start := simclock.Period1.Start
	span := int(simclock.Period2.End.Sub(start) / simclock.Day)
	if a.initial == Public && randutil.Bool(r, backgroundDownRate) {
		a.transitions = append(a.transitions, transition{
			at: start.Add(time.Duration(r.Intn(span)) * simclock.Day), to: Private,
		})
	} else if a.initial == Private && randutil.Bool(r, backgroundUpRate/0.30) {
		a.transitions = append(a.transitions, transition{
			at: start.Add(time.Duration(r.Intn(span)) * simclock.Day), to: Public,
		})
	}
	return a
}

// MaxInstagramID exposes the top of the Instagram ID space for samplers.
func (u *Universe) MaxInstagramID() int64 { return u.igMaxID }

// TriggerAbuse adds post-dox harassment comments to a doxed account; the
// pipeline calls it alongside RecordDox (kept separate so ablations can
// disable it).
func (u *Universe) TriggerAbuse(ref netid.Ref, t time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if a, ok := u.accounts[ref.Key()]; ok {
		u.addAbuseComments(a, t)
	}
}
