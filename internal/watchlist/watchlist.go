// Package watchlist implements the paper's proposed anti-SWATing watchlist
// (§7.2): addresses and phone numbers that recently appeared in dox files,
// shareable with police departments so that a violence report against a
// listed address can be treated with appropriate suspicion. Entries expire:
// the elevated SWATing risk is concentrated in the weeks after a dox drops.
package watchlist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultTTL is how long an entry stays listed.
const DefaultTTL = 90 * 24 * time.Hour

// Entry is one listed identifier.
type Entry struct {
	AddedAt   time.Time
	ExpiresAt time.Time
	Source    string // site where the dox appeared
	Hits      int    // how many doxes listed it
}

// Watchlist stores normalized, hashed identifiers. Like the notification
// registry, it never stores raw addresses — a leaked watchlist must not be
// a dox archive. Safe for concurrent use.
type Watchlist struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.RWMutex
	entries map[string]*Entry

	// Delta-checkpoint journal: keys added, renewed or purged since the
	// last cut; nil while journaling is off.
	journal map[string]bool
}

// New creates a watchlist. now supplies current time (virtual clocks in the
// simulation; time.Now in production); ttl <= 0 uses DefaultTTL.
func New(ttl time.Duration, now func() time.Time) *Watchlist {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if now == nil {
		now = time.Now
	}
	return &Watchlist{ttl: ttl, now: now, entries: make(map[string]*Entry)}
}

// normalizeAddress canonicalizes a street address: lowercase, collapse
// whitespace, strip punctuation.
func normalizeAddress(addr string) string {
	var b strings.Builder
	lastSpace := true
	for _, c := range strings.ToLower(strings.TrimSpace(addr)) {
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b.WriteRune(c)
			lastSpace = false
		default:
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// normalizePhone reduces a phone number to digits (10-digit NANP form).
func normalizePhone(phone string) string {
	var b strings.Builder
	for _, c := range phone {
		if c >= '0' && c <= '9' {
			b.WriteRune(c)
		}
	}
	d := b.String()
	if len(d) == 11 && d[0] == '1' {
		d = d[1:]
	}
	return d
}

func hash(kind, norm string) string {
	sum := sha256.Sum256([]byte(kind + "\x00" + norm))
	return hex.EncodeToString(sum[:])
}

// AddAddress lists an address seen in a dox.
func (w *Watchlist) AddAddress(addr, source string) {
	w.add(hash("addr", normalizeAddress(addr)), source)
}

// AddPhone lists a phone number seen in a dox.
func (w *Watchlist) AddPhone(phone, source string) {
	norm := normalizePhone(phone)
	if len(norm) < 7 {
		return
	}
	w.add(hash("phone", norm), source)
}

func (w *Watchlist) add(key, source string) {
	now := w.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.journal != nil {
		w.journal[key] = true
	}
	if e, ok := w.entries[key]; ok && now.Before(e.ExpiresAt) {
		e.Hits++
		e.ExpiresAt = now.Add(w.ttl) // a repeat listing renews the window
		return
	}
	w.entries[key] = &Entry{AddedAt: now, ExpiresAt: now.Add(w.ttl), Source: source, Hits: 1}
}

// CheckAddress reports whether an address is currently listed.
func (w *Watchlist) CheckAddress(addr string) (Entry, bool) {
	return w.check(hash("addr", normalizeAddress(addr)))
}

// CheckPhone reports whether a phone number is currently listed.
func (w *Watchlist) CheckPhone(phone string) (Entry, bool) {
	return w.check(hash("phone", normalizePhone(phone)))
}

func (w *Watchlist) check(key string) (Entry, bool) {
	now := w.now()
	w.mu.RLock()
	defer w.mu.RUnlock()
	e, ok := w.entries[key]
	if !ok || !now.Before(e.ExpiresAt) {
		return Entry{}, false
	}
	return *e, true
}

// Purge removes expired entries and returns how many were dropped.
func (w *Watchlist) Purge() int {
	now := w.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	dropped := 0
	for k, e := range w.entries {
		if !now.Before(e.ExpiresAt) {
			delete(w.entries, k)
			dropped++
			if w.journal != nil {
				w.journal[k] = true
			}
		}
	}
	return dropped
}

// Size returns the number of stored entries (including not-yet-purged
// expired ones).
func (w *Watchlist) Size() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.entries)
}

// State is the watchlist's checkpoint form: hashed keys and listing
// windows only, never raw addresses or numbers (§3.3). TTL and the clock
// are construction-time config and are not persisted.
type State struct {
	Entries map[string]Entry `json:"entries"`
}

// Snapshot captures the listings for checkpointing (deep copy).
func (w *Watchlist) Snapshot() State {
	w.mu.RLock()
	defer w.mu.RUnlock()
	st := State{Entries: make(map[string]Entry, len(w.entries))}
	for k, e := range w.entries {
		st.Entries[k] = *e
	}
	return st
}

// Restore replaces the listings from a snapshot (deep copy).
func (w *Watchlist) Restore(st State) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.entries = make(map[string]*Entry, len(st.Entries))
	for k, e := range st.Entries {
		cp := e
		w.entries[k] = &cp
	}
	if w.journal != nil {
		w.journal = make(map[string]bool)
	}
	return nil
}

// Delta is the watchlist's incremental checkpoint payload: every entry
// added or renewed since the previous cut, and every key purged.
type Delta struct {
	Upserts map[string]Entry `json:"upserts,omitempty"`
	Removed []string         `json:"removed,omitempty"` // sorted
}

// SetDeltaJournal enables (or disables) mutation journaling for delta
// checkpoints. Enabling starts an empty journal; with journaling off the
// watchlist pays nothing per listing.
func (w *Watchlist) SetDeltaJournal(on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.journal = nil
	if on {
		w.journal = make(map[string]bool)
	}
}

// CutDelta drains the journal into a Delta covering every mutation since
// the previous cut, and reports whether anything changed.
func (w *Watchlist) CutDelta() (Delta, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var d Delta
	for k := range w.journal {
		e, ok := w.entries[k]
		if !ok {
			d.Removed = append(d.Removed, k)
			continue
		}
		if d.Upserts == nil {
			d.Upserts = make(map[string]Entry, len(w.journal))
		}
		d.Upserts[k] = *e
	}
	sort.Strings(d.Removed)
	dirty := len(w.journal) > 0
	if dirty {
		w.journal = make(map[string]bool)
	}
	return d, dirty
}

// Apply folds a delta into a prior State in place, producing the state
// the delta was cut from.
func (d Delta) Apply(st *State) error {
	if st.Entries == nil && len(d.Upserts) > 0 {
		st.Entries = make(map[string]Entry, len(d.Upserts))
	}
	for k, e := range d.Upserts {
		st.Entries[k] = e
	}
	for _, k := range d.Removed {
		delete(st.Entries, k)
	}
	return nil
}

// Handler exposes the check API for dispatch integration:
//
//	GET /check?address=...   or   GET /check?phone=...
//
// responds {"listed":bool,"hits":n,"added":RFC3339}. Additions are not
// exposed over HTTP — only the detection pipeline writes.
func (w *Watchlist) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/check", func(rw http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		var e Entry
		var ok bool
		switch {
		case q.Get("address") != "":
			e, ok = w.CheckAddress(q.Get("address"))
		case q.Get("phone") != "":
			e, ok = w.CheckPhone(q.Get("phone"))
		default:
			http.Error(rw, "address or phone required", http.StatusBadRequest)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		resp := map[string]any{"listed": ok}
		if ok {
			resp["hits"] = e.Hits
			resp["added"] = e.AddedAt.Format(time.RFC3339)
		}
		_ = json.NewEncoder(rw).Encode(resp)
	})
	return mux
}
