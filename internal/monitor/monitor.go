// Package monitor implements the final stage of the paper's pipeline
// (§3.1.5): verifying and repeatedly scraping the online-social-network
// accounts referenced in dox files.
//
// Each tracked account is visited on the paper's schedule — immediately
// when the dox is observed, then one, two, three and seven days later, then
// every seven days — and classified as public, private or inactive from its
// profile page. First-visit 404s mark the account nonexistent (the
// "Account Verifier" box in the paper's Figure 1): fabricated accounts in
// joke doxes and extraction noise fall out here. For public accounts the
// scraper also records the text and authors of visible comments, which
// feeds the §5.3.2 commenter-network analysis.
package monitor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"doxmeter/internal/crawler"
	"doxmeter/internal/netid"
	"doxmeter/internal/osn"
	"doxmeter/internal/parallel"
	"doxmeter/internal/simclock"
	"doxmeter/internal/telemetry"
)

// scheduleOffsets is the paper's revisit schedule in days; after the last
// fixed offset, visits continue every seven days.
var scheduleOffsets = []int{0, 1, 2, 3, 7}

// Observation is one scrape result.
type Observation struct {
	Time     time.Time
	Status   osn.Status
	Defaced  bool         // profile carried a takeover banner (footnote 7)
	Comments []CommentObs // populated only for public accounts
}

// CommentObs is a comment visible on a public account.
type CommentObs struct {
	Author string
	Text   string
}

// History is the full observation record for one tracked account.
type History struct {
	Ref       netid.Ref
	NumericID int64 // Instagram control sample tracking, 0 otherwise
	Control   bool  // true for random-sample accounts
	DoxSeenAt time.Time
	Verified  bool // first visit found the account (even if private)
	// Activity is the visible post count from the first public
	// observation, or -1 when the account was never seen public — the
	// §6.2.1 "activity metric" the paper proposes as future work.
	Activity int
	Obs      []Observation

	nextIdx  int
	nextDue  time.Time
	endAt    time.Time // zero means the monitor-wide end
	finished bool
	url      string // profile URL, cached on first sweep (Ref/NumericID never change)
}

// FirstStatus returns the initial observed status.
func (h *History) FirstStatus() (osn.Status, bool) {
	if len(h.Obs) == 0 {
		return 0, false
	}
	return h.Obs[0].Status, true
}

// LastStatus returns the most recent observed status.
func (h *History) LastStatus() (osn.Status, bool) {
	if len(h.Obs) == 0 {
		return 0, false
	}
	return h.Obs[len(h.Obs)-1].Status, true
}

// StatusOnDay returns the last observed status on or before the given
// day offset from DoxSeenAt, carrying earlier observations forward.
func (h *History) StatusOnDay(day int) (osn.Status, bool) {
	cutoff := h.DoxSeenAt.Add(time.Duration(day)*simclock.Day + 12*time.Hour)
	var st osn.Status
	found := false
	for _, o := range h.Obs {
		if o.Time.After(cutoff) {
			break
		}
		st = o.Status
		found = true
	}
	return st, found
}

// ChangedWithin reports whether the observed status changed at least once
// within the first `days` days, and when the first change was observed.
func (h *History) ChangedWithin(days int) (bool, time.Time) {
	if len(h.Obs) < 2 {
		return false, time.Time{}
	}
	cutoff := h.DoxSeenAt.Add(time.Duration(days) * simclock.Day)
	prev := h.Obs[0].Status
	for _, o := range h.Obs[1:] {
		if o.Time.After(cutoff) {
			break
		}
		if o.Status != prev {
			return true, o.Time
		}
		prev = o.Status
	}
	return false, time.Time{}
}

// Monitor tracks accounts and scrapes them on schedule. Safe for concurrent
// use. ProcessDue fetches due profiles with a bounded worker pool (see
// Config.Parallelism) but commits observations in deterministic
// account-key order, so histories are identical at any parallelism.
type Monitor struct {
	clock   *simclock.Clock
	baseURL string
	client  *http.Client
	endAt   time.Time
	f       *crawler.Fetcher

	mu          sync.Mutex
	histories   map[string]*History
	requests    int64
	parallelism int

	// Delta-checkpoint journal: account keys whose history was created or
	// mutated since the last cut, kept only while journaling is enabled.
	// Histories are never removed, so upserting the journaled keys onto
	// the previous cut's state reproduces the current one.
	journalOn       bool
	journal         map[string]bool
	lastCutRequests int64

	// Sweep instruments; nil (no-op) until Instrument is called.
	sweepsC  *telemetry.Counter
	scrapesC *telemetry.Counter
	dueG     *telemetry.Gauge
	trackedG *telemetry.Gauge
}

// Config gathers everything New needs to build a monitor, replacing the
// old positional constructor plus post-construction setter sprawl:
// construct once, fully configured.
type Config struct {
	// Clock is the study's virtual clock (required).
	Clock *simclock.Clock
	// BaseURL is the OSN service root, no trailing slash (required).
	BaseURL string
	// EndAt is the monitor-wide horizon after which no account is
	// revisited (required).
	EndAt time.Time
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
	// Fetch, when non-nil, is the hardened fetch policy (retries,
	// backoff, circuit breaker, timeouts) — the same knobs the document
	// crawlers take. A nil Fetch uses crawler defaults; a Fetch with a
	// nil Client inherits Config.Client.
	Fetch *crawler.Options
	// Parallelism bounds how many profile fetches one ProcessDue sweep
	// issues concurrently; <= 1 scrapes serially. Any setting yields
	// identical histories (ordered commits).
	Parallelism int
	// Telemetry, when non-nil, declares the doxmeter_monitor_* sweep
	// metrics on this registry.
	Telemetry *telemetry.Registry
}

// New builds a monitor from a Config.
func New(cfg Config) *Monitor {
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	fopts := crawler.Options{Client: client}
	if cfg.Fetch != nil {
		fopts = *cfg.Fetch
		if fopts.Client == nil {
			fopts.Client = client
		}
	}
	m := &Monitor{
		clock:       cfg.Clock,
		baseURL:     cfg.BaseURL,
		client:      client,
		endAt:       cfg.EndAt,
		f:           crawler.NewFetcher(fopts),
		histories:   make(map[string]*History),
		parallelism: cfg.Parallelism,
	}
	m.instrument(cfg.Telemetry)
	return m
}

// instrument declares the monitor's sweep metrics on reg:
// doxmeter_monitor_sweeps_total, doxmeter_monitor_scrapes_total,
// doxmeter_monitor_due_accounts and doxmeter_monitor_tracked_accounts.
// A nil registry leaves the monitor uninstrumented (every update a no-op).
func (m *Monitor) instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepsC = reg.NewCounter("doxmeter_monitor_sweeps_total",
		"ProcessDue sweeps started.").With()
	m.scrapesC = reg.NewCounter("doxmeter_monitor_scrapes_total",
		"Profile scrapes committed to a history.").With()
	m.dueG = reg.NewGauge("doxmeter_monitor_due_accounts",
		"Accounts due at the start of the latest sweep.").With()
	m.trackedG = reg.NewGauge("doxmeter_monitor_tracked_accounts",
		"Accounts currently tracked (finished ones included).").With()
}

// FetchStats exposes the underlying fetcher's operational counters.
func (m *Monitor) FetchStats() crawler.FetchStats {
	m.mu.Lock()
	f := m.f
	m.mu.Unlock()
	return f.Stats()
}

// Track begins monitoring an account first seen in a dox at seenAt. Already
// tracked accounts are ignored (dox reposts).
func (m *Monitor) Track(ref netid.Ref, seenAt time.Time) {
	m.TrackUntil(ref, seenAt, time.Time{})
}

// TrackUntil tracks an account with an explicit monitoring horizon — the
// study stops revisiting accounts when their collection period ends. A zero
// endAt uses the monitor-wide horizon.
func (m *Monitor) TrackUntil(ref netid.Ref, seenAt, endAt time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := ref.Key()
	if _, ok := m.histories[key]; ok {
		return
	}
	m.histories[key] = &History{Ref: ref, DoxSeenAt: seenAt, nextDue: seenAt, endAt: endAt, Activity: -1}
	if m.journalOn {
		m.journal[key] = true
	}
}

// TrackControl begins monitoring an Instagram account by numeric ID as part
// of the random control sample (§6.2.1).
func (m *Monitor) TrackControl(id int64, seenAt time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := fmt.Sprintf("igid:%d", id)
	if _, ok := m.histories[key]; ok {
		return
	}
	m.histories[key] = &History{
		Ref:       netid.Ref{Network: netid.Instagram, Username: fmt.Sprintf("id-%d", id)},
		NumericID: id,
		Control:   true,
		DoxSeenAt: seenAt,
		nextDue:   seenAt,
		Activity:  -1,
	}
	if m.journalOn {
		m.journal[key] = true
	}
}

// historyKey is the histories-map key for a history: control accounts
// tracked by numeric ID key as "igid:<id>", everything else by the
// account reference. Snapshot ordering, Restore, and the delta journal
// all derive keys through here so they cannot disagree.
func historyKey(control bool, numericID int64, ref netid.Ref) string {
	if control && numericID > 0 {
		return fmt.Sprintf("igid:%d", numericID)
	}
	return ref.Key()
}

// Histories returns all tracked histories, sorted by account key.
func (m *Monitor) Histories() []*History {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.histories))
	for k := range m.histories {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*History, len(keys))
	for i, k := range keys {
		out[i] = m.histories[k]
	}
	return out
}

// Requests returns the number of profile fetches performed.
func (m *Monitor) Requests() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests
}

// HistoryState is one tracked account in a monitor snapshot. Account
// references serialize as (network slug, username) — OSN usernames are
// the paper's explicit §3.3 storage exception, since the monitor cannot
// keep scraping an account it no longer knows the name of. Comment text
// and authors come from public OSN profiles, the same exception.
type HistoryState struct {
	Network   string        `json:"network"`
	Username  string        `json:"username"`
	NumericID int64         `json:"numeric_id,omitempty"`
	Control   bool          `json:"control,omitempty"`
	DoxSeenAt time.Time     `json:"dox_seen_at"`
	Verified  bool          `json:"verified"`
	Activity  int           `json:"activity"`
	Obs       []Observation `json:"obs,omitempty"`
	NextIdx   int           `json:"next_idx"`
	NextDue   time.Time     `json:"next_due"`
	EndAt     time.Time     `json:"end_at,omitempty"`
	Finished  bool          `json:"finished,omitempty"`
}

// State is the monitor's versioned snapshot payload.
type State struct {
	Requests  int64          `json:"requests"`
	Histories []HistoryState `json:"histories"` // sorted by account key
}

// Snapshot captures every tracked account — schedule position included —
// for checkpointing.
func (m *Monitor) Snapshot() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.histories))
	for k := range m.histories {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	st := State{Requests: m.requests, Histories: make([]HistoryState, 0, len(keys))}
	for _, k := range keys {
		st.Histories = append(st.Histories, historyState(m.histories[k]))
	}
	return st
}

// historyState converts one live history to its snapshot form, copying
// the observation slice so later commits cannot alias it.
func historyState(h *History) HistoryState {
	obs := make([]Observation, len(h.Obs))
	copy(obs, h.Obs)
	return HistoryState{
		Network:   h.Ref.Network.Slug(),
		Username:  h.Ref.Username,
		NumericID: h.NumericID,
		Control:   h.Control,
		DoxSeenAt: h.DoxSeenAt,
		Verified:  h.Verified,
		Activity:  h.Activity,
		Obs:       obs,
		NextIdx:   h.nextIdx,
		NextDue:   h.nextDue,
		EndAt:     h.endAt,
		Finished:  h.finished,
	}
}

// Restore replaces the monitor's tracked accounts with a snapshot taken
// by Snapshot. Track/TrackUntil stay idempotent afterwards, so replayed
// tracking calls from a resumed study are no-ops.
func (m *Monitor) Restore(st State) error {
	histories := make(map[string]*History, len(st.Histories))
	for _, hs := range st.Histories {
		network, ok := netid.FromSlug(hs.Network)
		if !ok {
			return fmt.Errorf("monitor: restore: unknown network slug %q", hs.Network)
		}
		// advance indexes the revisit schedule with next_idx, so a
		// negative value from a corrupt state dir must fail here, not
		// panic in the first sweep after resume.
		if hs.NextIdx < 0 {
			return fmt.Errorf("monitor: restore: %s:%s has negative next_idx %d", hs.Network, hs.Username, hs.NextIdx)
		}
		for _, o := range hs.Obs {
			if !o.Status.Valid() {
				return fmt.Errorf("monitor: restore: %s:%s has an observation with unknown status %d", hs.Network, hs.Username, o.Status)
			}
		}
		h := &History{
			Ref:       netid.Ref{Network: network, Username: hs.Username},
			NumericID: hs.NumericID,
			Control:   hs.Control,
			DoxSeenAt: hs.DoxSeenAt,
			Verified:  hs.Verified,
			Activity:  hs.Activity,
			Obs:       hs.Obs,
			nextIdx:   hs.NextIdx,
			nextDue:   hs.NextDue,
			endAt:     hs.EndAt,
			finished:  hs.Finished,
		}
		histories[historyKey(h.Control, h.NumericID, h.Ref)] = h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.histories = histories
	m.requests = st.Requests
	if m.journalOn {
		m.journal = make(map[string]bool)
	}
	m.lastCutRequests = st.Requests
	return nil
}

// Delta is the monitor's incremental checkpoint payload: the request
// counter wholesale plus the full current state of every history touched
// since the previous cut. Histories are never removed and the per-day
// touched set is small (the revisit schedule is exponential), so
// upserting reproduces the next State exactly.
type Delta struct {
	Requests int64          `json:"requests"`
	Upserts  []HistoryState `json:"upserts,omitempty"` // sorted by account key
}

// historyStateKey reproduces the histories-map key from a history's
// snapshot form (Network already holds the slug Ref.Key would use).
func historyStateKey(hs HistoryState) string {
	if hs.Control && hs.NumericID > 0 {
		return fmt.Sprintf("igid:%d", hs.NumericID)
	}
	return hs.Network + ":" + hs.Username
}

// SetDeltaJournal enables (or disables) mutation journaling for delta
// checkpoints. Enabling starts an empty journal; the non-durable path
// keeps journaling off and pays nothing per track or commit.
func (m *Monitor) SetDeltaJournal(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journalOn = on
	if on {
		m.journal = make(map[string]bool)
	} else {
		m.journal = nil
	}
	m.lastCutRequests = m.requests
}

// CutDelta drains the journal into a delta covering every mutation since
// the previous cut, and reports whether anything changed. Full-snapshot
// cuts call it too (discarding the result) so the next delta's base is
// the snapshot just written.
func (m *Monitor) CutDelta() (Delta, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dirty := len(m.journal) > 0 || m.requests != m.lastCutRequests
	d := Delta{Requests: m.requests}
	if len(m.journal) > 0 {
		keys := make([]string, 0, len(m.journal))
		for k := range m.journal {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d.Upserts = make([]HistoryState, 0, len(keys))
		for _, k := range keys {
			d.Upserts = append(d.Upserts, historyState(m.histories[k]))
		}
		m.journal = make(map[string]bool)
	}
	m.lastCutRequests = m.requests
	return d, dirty
}

// Apply folds a delta into a prior State in place, producing the state
// the delta was cut from, byte-identical under JSON marshaling to a
// Snapshot taken at the cut (both keep Histories sorted by account key).
func (d Delta) Apply(st *State) {
	st.Requests = d.Requests
	for _, hs := range d.Upserts {
		key := historyStateKey(hs)
		i := sort.Search(len(st.Histories), func(i int) bool {
			return historyStateKey(st.Histories[i]) >= key
		})
		if i < len(st.Histories) && historyStateKey(st.Histories[i]) == key {
			st.Histories[i] = hs
			continue
		}
		st.Histories = append(st.Histories, HistoryState{})
		copy(st.Histories[i+1:], st.Histories[i:])
		st.Histories[i] = hs
	}
}

// ProcessDue visits every account whose next scheduled check is due at the
// current virtual time. Call it after each clock advance.
//
// With Config.Parallelism > 1 the profile fetches fan out across a bounded
// worker pool; observations are then committed on the calling goroutine in
// sorted account-key order, so the resulting histories (and Requests count
// on the error-free path) are identical to a serial sweep.
func (m *Monitor) ProcessDue(ctx context.Context) error {
	now := m.clock.Now()
	m.mu.Lock()
	workers := m.parallelism
	var due []*History
	for _, h := range m.histories {
		if !h.finished && !h.nextDue.After(now) {
			due = append(due, h)
		}
	}
	m.sweepsC.Inc()
	m.dueG.Set(float64(len(due)))
	m.trackedG.Set(float64(len(m.histories)))
	m.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].Ref.Key() < due[j].Ref.Key() })

	if workers <= 1 {
		for _, h := range due {
			if err := ctx.Err(); err != nil {
				return err
			}
			res := m.scrapeOne(ctx, h)
			if err := m.commit(h, res, now); err != nil {
				return err
			}
		}
		return nil
	}

	// Fetch phase: workers only read history state (scrape inspects
	// h.Obs/h.NumericID); nothing mutates until every fetch has finished.
	results := make([]scrapeResult, len(due))
	parallel.ForEach(len(due), workers, func(i int) {
		if err := ctx.Err(); err != nil {
			results[i] = scrapeResult{err: err}
			return
		}
		results[i] = m.scrapeOne(ctx, due[i])
	})
	// Ordered commit: stop at the first failure, leaving later accounts
	// uncommitted exactly as a serial sweep would.
	for i, h := range due {
		if err := m.commit(h, results[i], now); err != nil {
			return err
		}
	}
	return nil
}

// scrapeResult carries one profile fetch from the worker pool to the
// ordered commit.
type scrapeResult struct {
	status   osn.Status
	comments []CommentObs
	activity int
	defaced  bool
	found    bool
	err      error
}

func (m *Monitor) scrapeOne(ctx context.Context, h *History) scrapeResult {
	var r scrapeResult
	r.status, r.comments, r.activity, r.defaced, r.found, r.err = m.scrape(ctx, h)
	return r
}

// commit applies one scrape result to its history under the lock.
func (m *Monitor) commit(h *History, res scrapeResult, now time.Time) error {
	if res.err != nil {
		return res.err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	m.scrapesC.Inc()
	if m.journalOn {
		m.journal[historyKey(h.Control, h.NumericID, h.Ref)] = true
	}
	if len(h.Obs) == 0 {
		h.Verified = res.found
		if !res.found {
			// Nonexistent account: drop from further monitoring.
			h.finished = true
			return nil
		}
	}
	if h.Activity < 0 && res.activity >= 0 {
		h.Activity = res.activity
	}
	h.Obs = append(h.Obs, Observation{Time: now, Status: res.status, Defaced: res.defaced, Comments: res.comments})
	m.advance(h, now)
	return nil
}

// advance computes the next due time per the paper's schedule.
func (m *Monitor) advance(h *History, now time.Time) {
	h.nextIdx++
	var next time.Time
	if h.nextIdx < len(scheduleOffsets) {
		next = h.DoxSeenAt.Add(time.Duration(scheduleOffsets[h.nextIdx]) * simclock.Day)
	} else {
		weekly := scheduleOffsets[len(scheduleOffsets)-1] + 7*(h.nextIdx-len(scheduleOffsets)+1)
		next = h.DoxSeenAt.Add(time.Duration(weekly) * simclock.Day)
	}
	// Queuing delays in the paper's pipeline occasionally pushed checks a
	// little late; if the schedule slipped behind the clock, catch up.
	for !next.After(now) {
		h.nextIdx++
		next = next.Add(7 * simclock.Day)
	}
	end := m.endAt
	if !h.endAt.IsZero() && h.endAt.Before(end) {
		end = h.endAt
	}
	if next.After(end) {
		h.finished = true
		return
	}
	h.nextDue = next
}

var (
	commentRe  = regexp.MustCompile(`<div class="comment" data-author="([^"]+)">([^<]*)</div>`)
	activityRe = regexp.MustCompile(`<div class="activity" data-posts="(\d+)">`)
)

// validProfile is the structural check a genuine profile page always
// passes (every OSN page opens with an <html> tag): a 200 body without the
// marker is a corrupted transfer, which GetValidated retries and, if
// persistent, surfaces as crawler.ErrCorruptPayload.
func validProfile(body []byte) error {
	if !bytes.Contains(body, []byte("<html")) {
		return errors.New("profile page missing <html> marker")
	}
	return nil
}

// scrape fetches one profile and classifies it. found=false means 404;
// activity is -1 when not visible (private/inactive pages). Fetching runs
// through the shared hardened Fetcher, so retries, Retry-After back-
// pressure, truncation detection and the circuit breaker all apply here
// exactly as they do to the document crawlers.
func (m *Monitor) scrape(ctx context.Context, h *History) (status osn.Status, comments []CommentObs, activity int, defaced, found bool, err error) {
	if h.url == "" {
		// Safe to fill lazily: a handle appears at most once per sweep, so
		// no two scrapes of the same history ever run concurrently, and the
		// sweep barriers order this write before any later read.
		if h.NumericID > 0 {
			h.url = m.baseURL + "/instagram/id/" + strconv.FormatInt(h.NumericID, 10)
		} else {
			h.url = m.baseURL + "/" + h.Ref.Network.Slug() + "/" + h.Ref.Username
		}
	}
	url := h.url
	m.mu.Lock()
	f := m.f
	m.mu.Unlock()
	// Parse straight out of the fetcher's pooled buffer: the page is
	// classified and its retained captures (comment strings) copied out
	// before the buffer is recycled, so no whole-body copy is ever made.
	err = f.GetFunc(ctx, url, validProfile, func(body []byte) {
		status, comments, activity, defaced = parseProfileBytes(body)
	})
	switch {
	case errors.Is(err, crawler.ErrNotFound):
		return osn.Inactive, nil, -1, false, len(h.Obs) > 0, nil
	case err != nil:
		return 0, nil, -1, false, false, fmt.Errorf("monitor: %s: %w", url, err)
	}
	return status, comments, activity, defaced, true, nil
}

// parseProfile classifies a fetched profile page and extracts its visible
// activity count and comments. It is total: any input yields a
// classification without panicking, which the fuzz target enforces.
func parseProfile(page string) (status osn.Status, comments []CommentObs, activity int, defaced bool) {
	return parseProfileBytes([]byte(page))
}

// parseProfileBytes is parseProfile over a transient byte buffer: every
// retained capture is copied into a fresh string, so the input may be
// recycled as soon as the call returns.
func parseProfileBytes(page []byte) (status osn.Status, comments []CommentObs, activity int, defaced bool) {
	if bytes.Contains(page, []byte("This account is private.")) {
		return osn.Private, nil, -1, false
	}
	activity = -1
	if mch := activityRe.FindSubmatch(page); mch != nil {
		if v, err := strconv.Atoi(string(mch[1])); err == nil {
			activity = v
		}
	}
	defaced = bytes.Contains(page, []byte(`class="banner"`))
	for _, mch := range commentRe.FindAllSubmatch(page, -1) {
		comments = append(comments, CommentObs{Author: string(mch[1]), Text: string(mch[2])})
	}
	return osn.Public, comments, activity, defaced
}
