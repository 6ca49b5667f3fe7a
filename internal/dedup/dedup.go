// Package dedup identifies duplicate dox files — stage four of the paper's
// pipeline (§3.1.4).
//
// Two mechanisms, applied in order:
//
//  1. Exact-body matching: the paper removed 214 (3.9%) dox files whose
//     bodies matched a previously seen dox. Bodies are compared by SHA-256
//     after whitespace normalization.
//  2. Account-set matching: doxers repost the same dox with non-substantive
//     edits (timestamps, banner art, "update" sections). The paper treats a
//     dox whose extracted online-social-network account set equals a
//     previously seen dox's set as a duplicate (788 more, 14.2%), noting
//     they "saw no instances of dox files which had overlapping but
//     non-identical sets".
//
// Doxes with no extractable accounts cannot be near-dup-matched — a real
// limitation the paper shares.
package dedup

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"doxmeter/internal/privstore"
)

// Verdict classifies a document against the already-seen population.
type Verdict int

// Verdicts.
const (
	Unique Verdict = iota
	ExactDuplicate
	AccountDuplicate
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case ExactDuplicate:
		return "exact-duplicate"
	case AccountDuplicate:
		return "account-duplicate"
	default:
		return "unique"
	}
}

// Stats counts verdicts issued so far.
type Stats struct {
	Unique    int
	ExactDups int
	AccntDups int
}

// TotalDups returns all duplicates.
func (s Stats) TotalDups() int { return s.ExactDups + s.AccntDups }

// Total returns all classified documents.
func (s Stats) Total() int { return s.Unique + s.ExactDups + s.AccntDups }

// accountKeySalt keys the digest form of account-set identities. It is a
// fixed constant, not a secret: the digest exists so the account index
// can be checkpointed without writing raw usernames, and resume requires
// the digests to be reproducible across processes.
const accountKeySalt = "doxmeter-dedup-v1"

// Deduper tracks seen dox bodies and account sets. Safe for concurrent use.
//
// Both indexes are stored in persistence-safe form: bodies by SHA-256 of
// the normalized text, account sets by salted digest of the canonical
// account-set key. Raw text and raw usernames never live in the Deduper,
// so Snapshot is PII-free by construction.
type Deduper struct {
	mu       sync.Mutex
	bodies   map[[32]byte]string // body hash -> first doc ID
	accounts map[string]string   // digest of account-set key -> first doc ID
	stats    Stats

	// Delta-checkpoint journal: keys added since the last cut, kept only
	// while journaling is enabled. Both indexes are add-only (first doc
	// ID wins, entries never change or disappear), so a key list plus the
	// current Stats fully describes one cut's worth of change.
	journalOn   bool
	jBodies     [][32]byte
	jAccounts   []string
	lastCutStat Stats
}

// New returns an empty Deduper.
func New() *Deduper {
	return &Deduper{
		bodies:   make(map[[32]byte]string),
		accounts: make(map[string]string),
	}
}

// normalizeBody canonicalizes whitespace so trailing blanks and CRLF
// differences do not defeat exact matching. This string-materializing form
// is the REFERENCE: the live path is bodyHash, whose single-pass
// normalization FuzzNormalizeEquivalence holds bit-identical to this one.
func normalizeBody(body string) string {
	lines := strings.Split(strings.ReplaceAll(body, "\r\n", "\n"), "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " \t")
	}
	return strings.TrimSpace(strings.Join(lines, "\n"))
}

// normPool recycles the normalization scratch across Check/Peek calls.
var normPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// bodyHash is SHA-256 over normalizeBody(body), computed in one pass into
// pooled scratch: no line slice, no per-line strings, no joined copy. The
// reference's stages collapse as follows: a '\r' directly before '\n'
// is dropped (ReplaceAll "\r\n"→"\n"); runs of ' '/'\t' are held back and
// discarded when a line ends before more content arrives (per-line
// TrimRight " \t" — a run is contiguous in body, since '\r' and '\n'
// terminate it); the final TrimSpace runs over the scratch bytes.
func bodyHash(body string) [32]byte {
	bp := normPool.Get().(*[]byte)
	norm := (*bp)[:0]
	wsStart := -1
	for i := 0; i < len(body); i++ {
		switch b := body[i]; {
		case b == ' ' || b == '\t':
			if wsStart < 0 {
				wsStart = i
			}
		case b == '\n':
			wsStart = -1
			norm = append(norm, '\n')
		case b == '\r' && i+1 < len(body) && body[i+1] == '\n':
			// Dropped pair half; pending whitespace stays pending and
			// dies at the '\n' that follows.
		default:
			if wsStart >= 0 {
				norm = append(norm, body[wsStart:i]...)
				wsStart = -1
			}
			norm = append(norm, b)
		}
	}
	h := sha256.Sum256(bytes.TrimSpace(norm))
	*bp = norm[:0]
	normPool.Put(bp)
	return h
}

// Check classifies a dox document and records it. accountSetKey is the
// canonical extracted account-set identity (extract.Extraction.
// AccountSetKey); pass "" when no accounts were extracted. It returns the
// verdict and, for duplicates, the ID of the first-seen document.
func (d *Deduper) Check(docID, body, accountSetKey string) (Verdict, string) {
	h := bodyHash(body)
	d.mu.Lock()
	defer d.mu.Unlock()
	if first, ok := d.bodies[h]; ok {
		d.stats.ExactDups++
		return ExactDuplicate, first
	}
	d.bodies[h] = docID
	if d.journalOn {
		d.jBodies = append(d.jBodies, h)
	}
	if accountSetKey != "" {
		k := accountDigest(accountSetKey)
		if first, ok := d.accounts[k]; ok {
			d.stats.AccntDups++
			return AccountDuplicate, first
		}
		d.accounts[k] = docID
		if d.journalOn {
			d.jAccounts = append(d.jAccounts, k)
		}
	}
	d.stats.Unique++
	return Unique, ""
}

// accountDigest maps a raw account-set key to its stored form. Key
// equality is preserved (equal keys digest equally; HMAC-SHA256
// collisions are negligible), so verdicts are unchanged by the
// indirection.
func accountDigest(accountSetKey string) string {
	return privstore.DigestIdentifier(accountKeySalt, accountSetKey)
}

// Peek classifies a document against the seen population without recording
// it — used by secondary-venue analyses that must not disturb the primary
// study's state.
func (d *Deduper) Peek(body, accountSetKey string) (Verdict, string) {
	h := bodyHash(body)
	d.mu.Lock()
	defer d.mu.Unlock()
	if first, ok := d.bodies[h]; ok {
		return ExactDuplicate, first
	}
	if accountSetKey != "" {
		if first, ok := d.accounts[accountDigest(accountSetKey)]; ok {
			return AccountDuplicate, first
		}
	}
	return Unique, ""
}

// Stats returns a snapshot of the verdict counters.
func (d *Deduper) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SeenBodies returns how many distinct bodies have been recorded.
func (d *Deduper) SeenBodies() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.bodies)
}

// State is the Deduper's versioned snapshot payload. Both indexes are
// already digests, so the state can be written to disk as-is under the
// §3.3 discipline.
type State struct {
	Bodies   map[string]string `json:"bodies"`   // hex SHA-256 of normalized body -> first doc ID
	Accounts map[string]string `json:"accounts"` // salted account-set digest -> first doc ID
	Stats    Stats             `json:"stats"`
}

// Snapshot captures the full dedup state for checkpointing.
func (d *Deduper) Snapshot() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := State{
		Bodies:   make(map[string]string, len(d.bodies)),
		Accounts: make(map[string]string, len(d.accounts)),
		Stats:    d.stats,
	}
	for h, id := range d.bodies {
		st.Bodies[hex.EncodeToString(h[:])] = id
	}
	for k, id := range d.accounts {
		st.Accounts[k] = id
	}
	return st
}

// Restore replaces the Deduper's state with a snapshot taken by Snapshot.
func (d *Deduper) Restore(st State) error {
	bodies := make(map[[32]byte]string, len(st.Bodies))
	for hs, id := range st.Bodies {
		raw, err := hex.DecodeString(hs)
		if err != nil || len(raw) != 32 {
			return fmt.Errorf("dedup: restore: bad body hash %q", hs)
		}
		var h [32]byte
		copy(h[:], raw)
		bodies[h] = id
	}
	accounts := make(map[string]string, len(st.Accounts))
	for k, id := range st.Accounts {
		accounts[k] = id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bodies = bodies
	d.accounts = accounts
	d.stats = st.Stats
	d.jBodies = nil
	d.jAccounts = nil
	d.lastCutStat = st.Stats
	return nil
}

// Delta is the Deduper's incremental checkpoint payload: everything
// added since the previous cut, plus the (small) verdict counters
// wholesale. Applying it to the previous cut's State reproduces the
// next State exactly.
type Delta struct {
	AddedBodies   map[string]string `json:"added_bodies,omitempty"`
	AddedAccounts map[string]string `json:"added_accounts,omitempty"`
	Stats         Stats             `json:"stats"`
}

// SetDeltaJournal enables (or disables) mutation journaling for delta
// checkpoints. Enabling starts an empty journal; the non-durable path
// keeps journaling off and pays nothing per Check.
func (d *Deduper) SetDeltaJournal(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.journalOn = on
	d.jBodies = nil
	d.jAccounts = nil
	d.lastCutStat = d.stats
}

// CutDelta drains the journal into a Delta covering every mutation since
// the previous cut (or since journaling was enabled/state restored), and
// reports whether anything changed. Call it on full-snapshot cuts too —
// discarding the result — so the next delta's base is the snapshot just
// written.
func (d *Deduper) CutDelta() (Delta, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dirty := len(d.jBodies) > 0 || len(d.jAccounts) > 0 || d.stats != d.lastCutStat
	delta := Delta{Stats: d.stats}
	if len(d.jBodies) > 0 {
		delta.AddedBodies = make(map[string]string, len(d.jBodies))
		for _, h := range d.jBodies {
			delta.AddedBodies[hex.EncodeToString(h[:])] = d.bodies[h]
		}
	}
	if len(d.jAccounts) > 0 {
		delta.AddedAccounts = make(map[string]string, len(d.jAccounts))
		for _, k := range d.jAccounts {
			delta.AddedAccounts[k] = d.accounts[k]
		}
	}
	d.jBodies = nil
	d.jAccounts = nil
	d.lastCutStat = d.stats
	return delta, dirty
}

// Apply folds a delta into a prior State in place, producing the state
// the delta was cut from. Marshaling the result is byte-identical to
// marshaling a Snapshot taken at the cut (map iteration order is
// irrelevant: JSON object keys marshal sorted).
func (delta Delta) Apply(st *State) error {
	if st.Bodies == nil && len(delta.AddedBodies) > 0 {
		st.Bodies = make(map[string]string, len(delta.AddedBodies))
	}
	for k, id := range delta.AddedBodies {
		st.Bodies[k] = id
	}
	if st.Accounts == nil && len(delta.AddedAccounts) > 0 {
		st.Accounts = make(map[string]string, len(delta.AddedAccounts))
	}
	for k, id := range delta.AddedAccounts {
		st.Accounts[k] = id
	}
	st.Stats = delta.Stats
	return nil
}
