// Package feed implements the paper's proposed threat-exchange integration
// (§7.1): a feed of detected dox URLs and the social accounts they
// reference, for OSN operators (the paper names Facebook's Threat Exchange)
// to consume — notifying victims, enabling stricter filtering, and watching
// for account compromise.
//
// The feed is a bounded, append-only log with cursor-based replay and
// long-poll subscription, exposed as JSON lines over HTTP. Retention is a
// ring: once more than Retention events have been published the oldest are
// compacted away and a replay from a cursor older than the window reports
// ErrCursorExpired instead of silently returning the wrong events.
package feed

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"doxmeter/internal/netid"
)

// DefaultRetention is how many events NewLog keeps before compacting.
const DefaultRetention = 1 << 16

// ErrCursorExpired reports a replay cursor older than the retention window;
// the consumer must resync (e.g. from FirstSeq()-1) and accept the gap.
var ErrCursorExpired = errors.New("feed: cursor expired (events compacted)")

// Event is one detected dox.
type Event struct {
	Seq      int64     `json:"seq"`
	Site     string    `json:"site"`
	URL      string    `json:"url"`
	SeenAt   time.Time `json:"seen_at"`
	Accounts []string  `json:"accounts"` // network:username keys
}

// Log is the bounded event log. Safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	retention int
	buf       []Event // ring storage; grows to retention then wraps
	start     int     // index of the oldest retained event
	n         int     // retained count
	nextSeq   int64   // next sequence number to assign (seqs start at 1)
	waiter    chan struct{}
	cutSeq    int64 // nextSeq at the last delta cut
}

// NewLog returns an empty log with DefaultRetention.
func NewLog() *Log { return NewLogRetention(DefaultRetention) }

// NewLogRetention returns an empty log retaining up to n events
// (n < 1 uses DefaultRetention).
func NewLogRetention(n int) *Log {
	if n < 1 {
		n = DefaultRetention
	}
	return &Log{retention: n, nextSeq: 1, waiter: make(chan struct{})}
}

// Publish appends a detection event and wakes any long-pollers. It returns
// the assigned sequence number. The oldest event is compacted away once the
// log exceeds its retention.
func (l *Log) Publish(site, url string, seenAt time.Time, accounts []netid.Ref) int64 {
	keys := make([]string, len(accounts))
	for i, a := range accounts {
		keys[i] = a.Key()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.nextSeq
	l.nextSeq++
	e := Event{Seq: seq, Site: site, URL: url, SeenAt: seenAt, Accounts: keys}
	switch {
	case len(l.buf) < l.retention: // still growing toward full retention
		l.buf = append(l.buf, e)
		l.n++
	case l.n < len(l.buf): // restored with slack (can't happen today; safe)
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
	default: // saturated: overwrite the oldest
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
	}
	close(l.waiter)
	l.waiter = make(chan struct{})
	return seq
}

// After returns up to limit events with Seq > cursor. If the cursor falls
// before the retention window (events it has not seen were compacted), it
// returns ErrCursorExpired.
func (l *Log) After(cursor int64, limit int) ([]Event, error) {
	events, _, err := l.after(cursor, limit)
	return events, err
}

// after is After plus the channel the next publish closes, read under the
// same lock as the events: a long-poller that finds nothing and waits on
// it cannot miss an event published between the read and the wait.
func (l *Log) after(cursor int64, limit int) ([]Event, <-chan struct{}, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	first := l.nextSeq - int64(l.n) // seq of the oldest retained event
	if cursor+1 < first {
		return nil, nil, ErrCursorExpired
	}
	if cursor+1 >= l.nextSeq {
		return nil, l.waiter, nil
	}
	count := int(l.nextSeq - cursor - 1)
	if limit > 0 && count > limit {
		count = limit
	}
	out := make([]Event, count)
	off := int(cursor + 1 - first)
	for i := 0; i < count; i++ {
		out[i] = l.buf[(l.start+off+i)%len(l.buf)]
	}
	return out, l.waiter, nil
}

// FirstSeq returns the sequence number of the oldest retained event, or 0
// when the log is empty.
func (l *Log) FirstSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	return l.nextSeq - int64(l.n)
}

// LastSeq returns the most recently assigned sequence number (0 before the
// first publish). Cursor space is never recycled, so LastSeq is also the
// total published count.
func (l *Log) LastSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Len returns the number of currently retained events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Retention returns the configured retention bound.
func (l *Log) Retention() int { return l.retention }

// State is the log's checkpoint form: the retained window plus the cursor
// space high-water mark, so a restored feed keeps issuing unique seqs.
type State struct {
	NextSeq int64   `json:"next_seq"`
	Events  []Event `json:"events"` // oldest → newest
}

// Snapshot captures the retained window for checkpointing.
func (l *Log) Snapshot() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := make([]Event, l.n)
	for i := 0; i < l.n; i++ {
		evs[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return State{NextSeq: l.nextSeq, Events: evs}
}

// Restore replaces the log contents from a snapshot. If the snapshot holds
// more events than this log's retention, only the newest are kept. Seqs
// must run consecutively from at least 1 up to next_seq: After finds
// events by arithmetic on exactly that, so a gap would replay old events
// as new ones.
func (l *Log) Restore(st State) error {
	if err := checkSeqs(st.Events, st.NextSeq); err != nil {
		return err
	}
	evs := st.Events
	l.mu.Lock()
	defer l.mu.Unlock()
	if over := len(evs) - l.retention; over > 0 {
		evs = evs[over:]
	}
	l.buf = append([]Event(nil), evs...)
	l.start = 0
	l.n = len(evs)
	l.nextSeq = st.NextSeq
	if l.nextSeq < 1 {
		l.nextSeq = 1
	}
	l.cutSeq = l.nextSeq
	close(l.waiter) // wake pollers parked across the restore
	l.waiter = make(chan struct{})
	return nil
}

// checkSeqs verifies that events carry consecutive seqs of at least 1 and
// that nextSeq follows the last of them.
func checkSeqs(evs []Event, nextSeq int64) error {
	for i, e := range evs {
		if e.Seq < 1 {
			return fmt.Errorf("feed: event seq %d is below 1", e.Seq)
		}
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			return fmt.Errorf("feed: event seq %d follows seq %d", e.Seq, evs[i-1].Seq)
		}
	}
	if len(evs) > 0 {
		if last := evs[len(evs)-1].Seq; nextSeq != last+1 {
			return fmt.Errorf("feed: snapshot next_seq %d does not follow last event seq %d", nextSeq, last)
		}
	}
	return nil
}

// Delta is the log's incremental checkpoint payload: the events published
// since the previous cut that are still retained, the oldest retained seq
// (next_seq when the log is empty), and next_seq.
type Delta struct {
	NextSeq  int64   `json:"next_seq"`
	FirstSeq int64   `json:"first_seq"`
	Events   []Event `json:"events,omitempty"` // oldest → newest
}

// SetDeltaJournal re-anchors the delta journal at the current state. The
// journal is one watermark, so the log pays nothing per publish whether
// or not a checkpoint ever cuts it.
func (l *Log) SetDeltaJournal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cutSeq = l.nextSeq
}

// CutDelta returns the delta since the previous cut, and whether
// anything was published since.
func (l *Log) CutDelta() (Delta, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.nextSeq - int64(l.n)
	d := Delta{NextSeq: l.nextSeq, FirstSeq: first}
	for seq := max(l.cutSeq, first); seq < l.nextSeq; seq++ {
		d.Events = append(d.Events, l.buf[(l.start+int(seq-first))%len(l.buf)])
	}
	dirty := l.nextSeq != l.cutSeq
	l.cutSeq = l.nextSeq
	return d, dirty
}

// Apply folds a delta into a prior State in place, producing the state
// the delta was cut from: events below first_seq are compacted away and
// the new ones appended. The result must hold consecutive seqs ending
// just below next_seq, as Restore requires.
func (d Delta) Apply(st *State) error {
	evs := append(st.Events, d.Events...)
	i := 0
	for i < len(evs) && evs[i].Seq < d.FirstSeq {
		i++
	}
	evs = evs[i:]
	if err := checkSeqs(evs, d.NextSeq); err != nil {
		return err
	}
	st.Events, st.NextSeq = evs, d.NextSeq
	return nil
}

// Handler exposes the feed:
//
//	GET /events?cursor=N&limit=M            — replay events after N
//	GET /events?cursor=N&wait=1s            — long-poll for new events
//
// Responses are JSON lines, one event per line. A cursor that has fallen
// out of the retention window gets 410 Gone; the consumer should resync
// from the advertised oldest cursor.
func (l *Log) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		cursor := int64(0)
		if s := q.Get("cursor"); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil || v < 0 {
				http.Error(w, "bad cursor", http.StatusBadRequest)
				return
			}
			cursor = v
		}
		limit := 1000
		if s := q.Get("limit"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = v
		}
		events, wake, err := l.after(cursor, limit)
		if err == nil && len(events) == 0 && q.Get("wait") != "" {
			d, derr := time.ParseDuration(q.Get("wait"))
			if derr != nil || d <= 0 || d > time.Minute {
				http.Error(w, "bad wait", http.StatusBadRequest)
				return
			}
			select {
			case <-wake:
				events, err = l.After(cursor, limit)
			case <-time.After(d):
			case <-req.Context().Done():
				return
			}
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("cursor expired; resync from cursor=%d", l.FirstSeq()-1), http.StatusGone)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		_ = bw.Flush()
	})
	return mux
}

// URLFor formats the canonical paste URL for a detection (what the paper
// would hand Facebook: "a feed of pastebin.com URLs").
func URLFor(site, id string) string {
	if site == "pastebin" {
		return fmt.Sprintf("https://pastebin.example/%s", id)
	}
	return fmt.Sprintf("https://%s.example/%s", site, id)
}
