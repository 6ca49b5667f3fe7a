// Package notify implements the paper's proposed dox-notification service
// (§7.1): a "Have I Been Pwned"-style registry where users register
// identifiers (social accounts, emails, phone numbers) and are notified
// when one appears in a detected dox file. As the paper specifies, the
// service never stores or reveals *what* was shared — only that something
// was, and where it was seen.
//
// Identifiers are stored as salted SHA-256 digests, so the registry itself
// is not a new centralized source of sensitive data (§3.3's design rule).
package notify

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"

	"doxmeter/internal/extract"
	"doxmeter/internal/netid"
	"doxmeter/internal/telemetry"
)

// Kind is the identifier type a subscriber registers.
type Kind string

// Identifier kinds.
const (
	KindAccount Kind = "account" // network:username
	KindEmail   Kind = "email"
	KindPhone   Kind = "phone"
)

// Notification tells a subscriber that one of their identifiers appeared.
type Notification struct {
	SubscriberID string
	Kind         Kind
	Site         string // where the dox was observed
	SeenAt       time.Time
}

// DefaultPendingCap bounds each subscriber's undelivered queue. In service
// mode a subscriber that never drains must not grow memory without bound;
// once full, the oldest notifications are dropped (and counted).
const DefaultPendingCap = 4096

// Service is the notification registry. Safe for concurrent use.
type Service struct {
	salt []byte

	mu          sync.RWMutex
	subscribers map[string]map[string]Kind // digest -> subscriberID -> kind
	pending     map[string][]Notification  // subscriberID -> queue
	pendingCap  int
	notified    int
	ingested    int
	dropped     int

	// Delta-checkpoint journal, kept only while journaling is enabled:
	// the digests and subscriber queues touched since the last cut, and
	// the counters at that cut.
	journalOn bool
	jDigests  map[string]bool
	jQueues   map[string]bool
	cutCounts [3]int // ingested, notified, dropped

	droppedC *telemetry.Counter // nil until Instrument
}

// NewService creates a registry with the given salt (required: an unsalted
// registry of hashes over a small identifier space invites brute force).
func NewService(salt string) *Service {
	return &Service{
		salt:        []byte(salt),
		subscribers: make(map[string]map[string]Kind),
		pending:     make(map[string][]Notification),
		pendingCap:  DefaultPendingCap,
	}
}

// SetPendingCap bounds each subscriber's pending queue to n notifications
// (drop-oldest on overflow). n <= 0 removes the bound.
func (s *Service) SetPendingCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingCap = n
}

// Instrument registers the service's counters on reg
// (doxmeter_notify_dropped_total). A nil registry is a no-op.
func (s *Service) Instrument(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.droppedC = reg.NewCounter("doxmeter_notify_dropped_total",
		"Notifications dropped from full per-subscriber pending queues.").With()
	s.droppedC.Add(float64(s.dropped))
}

// digest computes the salted identifier digest.
func (s *Service) digest(kind Kind, value string) string {
	mac := hmac.New(sha256.New, s.salt)
	mac.Write([]byte(string(kind) + "\x00" + normalize(kind, value)))
	return hex.EncodeToString(mac.Sum(nil))
}

// normalize canonicalizes identifiers: emails and usernames lowercase,
// phones digits-only.
func normalize(kind Kind, v string) string {
	v = strings.TrimSpace(v)
	switch kind {
	case KindPhone:
		var b strings.Builder
		for _, c := range v {
			if c >= '0' && c <= '9' {
				b.WriteRune(c)
			}
		}
		d := b.String()
		// NANP numbers with a leading country code normalize to 10 digits.
		if len(d) == 11 && d[0] == '1' {
			d = d[1:]
		}
		return d
	default:
		return strings.ToLower(v)
	}
}

// Subscribe registers an identifier for a subscriber.
func (s *Service) Subscribe(subscriberID string, kind Kind, value string) {
	d := s.digest(kind, value)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subscribers[d] == nil {
		s.subscribers[d] = make(map[string]Kind)
	}
	s.subscribers[d][subscriberID] = kind
	if s.journalOn {
		s.jDigests[d] = true
	}
}

// SubscribeAccount registers a social account.
func (s *Service) SubscribeAccount(subscriberID string, ref netid.Ref) {
	s.Subscribe(subscriberID, KindAccount, ref.Key())
}

// Unsubscribe removes one identifier registration.
func (s *Service) Unsubscribe(subscriberID string, kind Kind, value string) {
	d := s.digest(kind, value)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subscribers[d], subscriberID)
	if len(s.subscribers[d]) == 0 {
		delete(s.subscribers, d)
	}
	if s.journalOn {
		s.jDigests[d] = true
	}
}

// Ingest processes one detected dox's extraction: every registered
// identifier that appears is queued as a notification. It returns how many
// notifications were generated.
func (s *Service) Ingest(site string, seenAt time.Time, ex *extract.Extraction) int {
	type hit struct {
		digest string
		kind   Kind
	}
	var hits []hit
	for _, ref := range ex.AccountRefs() {
		hits = append(hits, hit{s.digest(KindAccount, ref.Key()), KindAccount})
	}
	for _, e := range ex.Emails {
		hits = append(hits, hit{s.digest(KindEmail, e), KindEmail})
	}
	for _, p := range ex.Phones {
		hits = append(hits, hit{s.digest(KindPhone, p), KindPhone})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ingested++
	n := 0
	for _, h := range hits {
		for sub := range s.subscribers[h.digest] {
			s.enqueue(sub, Notification{
				SubscriberID: sub,
				Kind:         h.kind,
				Site:         site,
				SeenAt:       seenAt,
			})
			n++
		}
	}
	s.notified += n
	return n
}

// enqueue appends one notification, dropping the oldest entries when the
// subscriber's queue exceeds the cap. Callers hold s.mu.
func (s *Service) enqueue(sub string, note Notification) {
	q := append(s.pending[sub], note)
	if s.pendingCap > 0 && len(q) > s.pendingCap {
		over := len(q) - s.pendingCap
		// Shift in place instead of re-slicing the head off: the backing
		// array stays bounded at ~cap instead of leaking dropped entries.
		copy(q, q[over:])
		q = q[:s.pendingCap]
		s.dropped += over
		s.droppedC.Add(float64(over))
	}
	s.pending[sub] = q
	if s.journalOn {
		s.jQueues[sub] = true
	}
}

// Drain returns and clears a subscriber's pending notifications.
func (s *Service) Drain(subscriberID string) []Notification {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, ok := s.pending[subscriberID]
	delete(s.pending, subscriberID)
	if ok && s.journalOn {
		s.jQueues[subscriberID] = true
	}
	return out
}

// Pending returns the number of undelivered notifications for a subscriber.
func (s *Service) Pending(subscriberID string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pending[subscriberID])
}

// Stats reports service counters.
func (s *Service) Stats() (identifiers, ingested, notified int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.subscribers), s.ingested, s.notified
}

// Dropped reports how many notifications were dropped from full queues.
func (s *Service) Dropped() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}

// Subscribers lists subscriber IDs with pending notifications, sorted.
func (s *Service) Subscribers() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pending))
	for id := range s.pending {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// State is the registry's checkpoint form. It holds only what the registry
// itself holds — salted digests and opaque subscriber IDs, never raw
// identifiers (§3.3) — and the salt is deliberately NOT persisted: a
// restored service must be constructed with the same salt or digests from
// new subscriptions simply won't match the restored ones.
type State struct {
	Subscribers map[string]map[string]Kind `json:"subscribers"`
	Pending     map[string][]Notification  `json:"pending"`
	Ingested    int                        `json:"ingested"`
	Notified    int                        `json:"notified"`
	Dropped     int                        `json:"dropped"`
}

// Snapshot captures the registry for checkpointing (deep copy).
func (s *Service) Snapshot() State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := State{
		Subscribers: make(map[string]map[string]Kind, len(s.subscribers)),
		Pending:     make(map[string][]Notification, len(s.pending)),
		Ingested:    s.ingested,
		Notified:    s.notified,
		Dropped:     s.dropped,
	}
	for d, subs := range s.subscribers {
		cp := make(map[string]Kind, len(subs))
		for id, k := range subs {
			cp[id] = k
		}
		st.Subscribers[d] = cp
	}
	for id, q := range s.pending {
		st.Pending[id] = append([]Notification(nil), q...)
	}
	return st
}

// Restore replaces the registry contents from a snapshot (deep copy). The
// pending cap is re-applied to restored queues; negative counters are
// refused.
func (s *Service) Restore(st State) error {
	if st.Ingested < 0 || st.Notified < 0 || st.Dropped < 0 {
		return fmt.Errorf("notify: restore: negative counter (ingested %d, notified %d, dropped %d)",
			st.Ingested, st.Notified, st.Dropped)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subscribers = make(map[string]map[string]Kind, len(st.Subscribers))
	for d, subs := range st.Subscribers {
		cp := make(map[string]Kind, len(subs))
		for id, k := range subs {
			cp[id] = k
		}
		s.subscribers[d] = cp
	}
	s.pending = make(map[string][]Notification, len(st.Pending))
	for id, q := range st.Pending {
		if s.pendingCap > 0 && len(q) > s.pendingCap {
			q = q[len(q)-s.pendingCap:]
		}
		s.pending[id] = append([]Notification(nil), q...)
	}
	s.ingested = st.Ingested
	s.notified = st.Notified
	if diff := st.Dropped - s.dropped; diff > 0 {
		s.droppedC.Add(float64(diff)) // reseed the exported counter
	}
	s.dropped = st.Dropped
	s.resetJournalLocked()
	return nil
}

// Delta is the registry's incremental checkpoint payload: every digest
// and every subscriber queue touched since the previous cut, upserted
// with its value at the cut or listed as removed, plus the counters
// wholesale. Applying it to the previous cut's State reproduces the
// State at this cut.
type Delta struct {
	Subscribers    map[string]map[string]Kind `json:"subscribers,omitempty"`
	RemovedDigests []string                   `json:"removed_digests,omitempty"` // sorted
	Pending        map[string][]Notification  `json:"pending,omitempty"`
	Drained        []string                   `json:"drained,omitempty"` // sorted
	Ingested       int                        `json:"ingested"`
	Notified       int                        `json:"notified"`
	Dropped        int                        `json:"dropped"`
}

// SetDeltaJournal enables (or disables) mutation journaling for delta
// checkpoints. Enabling starts an empty journal; with journaling off the
// registry pays nothing per mutation.
func (s *Service) SetDeltaJournal(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journalOn = on
	s.resetJournalLocked()
}

// resetJournalLocked re-anchors the journal at the current state.
// Callers hold s.mu.
func (s *Service) resetJournalLocked() {
	s.jDigests, s.jQueues = nil, nil
	if s.journalOn {
		s.jDigests = make(map[string]bool)
		s.jQueues = make(map[string]bool)
	}
	s.cutCounts = [3]int{s.ingested, s.notified, s.dropped}
}

// CutDelta drains the journal into a Delta covering every mutation since
// the previous cut, and reports whether anything changed. It runs under
// the registry lock, so a Subscribe or Drain racing with a cut lands
// wholly in this cut or wholly in the next.
func (s *Service) CutDelta() (Delta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := Delta{Ingested: s.ingested, Notified: s.notified, Dropped: s.dropped}
	dirty := len(s.jDigests) > 0 || len(s.jQueues) > 0 || s.cutCounts != [3]int{d.Ingested, d.Notified, d.Dropped}
	for dg := range s.jDigests {
		subs, ok := s.subscribers[dg]
		if !ok {
			d.RemovedDigests = append(d.RemovedDigests, dg)
			continue
		}
		if d.Subscribers == nil {
			d.Subscribers = make(map[string]map[string]Kind, len(s.jDigests))
		}
		d.Subscribers[dg] = maps.Clone(subs)
	}
	for id := range s.jQueues {
		q, ok := s.pending[id]
		if !ok {
			d.Drained = append(d.Drained, id)
			continue
		}
		if d.Pending == nil {
			d.Pending = make(map[string][]Notification, len(s.jQueues))
		}
		d.Pending[id] = append([]Notification(nil), q...)
	}
	sort.Strings(d.RemovedDigests)
	sort.Strings(d.Drained)
	s.resetJournalLocked()
	return d, dirty
}

// Apply folds a delta into a prior State in place, producing the state
// the delta was cut from; it marshals byte-identically to a Snapshot
// taken at the cut (JSON object keys marshal sorted).
func (d Delta) Apply(st *State) error {
	if st.Subscribers == nil && len(d.Subscribers) > 0 {
		st.Subscribers = make(map[string]map[string]Kind, len(d.Subscribers))
	}
	for dg, subs := range d.Subscribers {
		st.Subscribers[dg] = subs
	}
	for _, dg := range d.RemovedDigests {
		delete(st.Subscribers, dg)
	}
	if st.Pending == nil && len(d.Pending) > 0 {
		st.Pending = make(map[string][]Notification, len(d.Pending))
	}
	for id, q := range d.Pending {
		st.Pending[id] = q
	}
	for _, id := range d.Drained {
		delete(st.Pending, id)
	}
	st.Ingested, st.Notified, st.Dropped = d.Ingested, d.Notified, d.Dropped
	return nil
}
