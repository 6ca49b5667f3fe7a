// Package sites simulates the three text-sharing services the paper
// crawled: pastebin.com (paid scraping API), 4chan.org and 8ch.net (public
// JSON board APIs). The services are real net/http handlers driven by the
// study's virtual clock — documents become visible at their post time and
// pastebin posts disappear when "deleted" — so the crawlers exercise the
// same code paths a live deployment would: HTTP, paging, cursors, rate
// limits, retries, and 404 handling.
package sites

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"doxmeter/internal/randutil"
	"doxmeter/internal/simclock"
	"doxmeter/internal/textgen"
)

// DeletionModel gives the probability a post is removed within 30 days of
// posting, by ground-truth class. The paper measured 12.8% for dox files
// versus 4.2% for everything else (Table 3) — doxes get abuse-reported.
type DeletionModel struct {
	DoxRate   float64
	OtherRate float64
}

// DefaultDeletionModel calibrates so the *measured* Table 3 rates land on
// the paper's: the pipeline's "Dox" bucket is classifier output and
// includes ~15-20% false positives deleted at the background rate, so the
// planted ground-truth rate sits slightly above the paper's 12.8%.
func DefaultDeletionModel() DeletionModel {
	return DeletionModel{DoxRate: 0.15, OtherRate: 0.042}
}

// Pastebin simulates pastebin.com's scraping API:
//
//	GET /api_scraping.php?since=<unix>&limit=<n>  — paste metadata, oldest
//	    first, strictly after the cursor; only pastes visible at the
//	    current virtual time appear.
//	GET /api_scrape_item.php?i=<key>              — raw paste body; 404 for
//	    unknown keys, not-yet-posted pastes, and deleted pastes.
//
// Safe for concurrent use: everything but the request counter is fixed at
// construction, so requests read it without a lock.
type Pastebin struct {
	clock *simclock.Clock

	docs     []textgen.Doc // sorted by Posted
	byID     map[string]int
	deleteAt map[string]time.Time

	requests atomic.Int64
}

// NewPastebin builds the service. Deletion times are pre-drawn from the
// model: a condemned paste vanishes a uniform 1–30 days after posting.
func NewPastebin(clock *simclock.Clock, docs []textgen.Doc, model DeletionModel, seed int64) *Pastebin {
	p := &Pastebin{
		clock:    clock,
		docs:     make([]textgen.Doc, len(docs)),
		byID:     make(map[string]int, len(docs)),
		deleteAt: make(map[string]time.Time),
	}
	copy(p.docs, docs)
	sort.SliceStable(p.docs, func(i, j int) bool { return p.docs[i].Posted.Before(p.docs[j].Posted) })
	r := randutil.New(seed)
	for i, d := range p.docs {
		p.byID[d.ID] = i
		rate := model.OtherRate
		if d.IsDox() {
			rate = model.DoxRate
		}
		if randutil.Bool(r, rate) {
			p.deleteAt[d.ID] = d.Posted.Add(time.Duration(1+r.Intn(30)) * simclock.Day)
		}
	}
	return p
}

// PasteMeta is the scrape-listing entry.
type PasteMeta struct {
	Key   string `json:"key"`
	Title string `json:"title"`
	Date  int64  `json:"date"`
	Size  int    `json:"size"`
}

// Handler returns the HTTP interface.
func (p *Pastebin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api_scraping.php", p.handleScrape)
	mux.HandleFunc("/api_scrape_item.php", p.handleItem)
	return mux
}

// queryParam returns the first value for key in a raw query string. It
// replaces req.URL.Query().Get in the request handlers: Query() builds a
// url.Values map per call, which at one item fetch per crawled document
// is pure allocation churn. Escaped values fall back to QueryUnescape;
// the plain tokens the simulated clients emit return as sub-slices.
func queryParam(rawQuery, key string) string {
	for len(rawQuery) > 0 {
		part := rawQuery
		if i := strings.IndexByte(part, '&'); i >= 0 {
			part, rawQuery = part[:i], part[i+1:]
		} else {
			rawQuery = ""
		}
		if len(part) <= len(key) || part[len(key)] != '=' || part[:len(key)] != key {
			continue
		}
		v := part[len(key)+1:]
		if strings.ContainsAny(v, "%+") {
			if u, err := url.QueryUnescape(v); err == nil {
				return u
			}
		}
		return v
	}
	return ""
}

func (p *Pastebin) handleScrape(w http.ResponseWriter, req *http.Request) {
	p.requests.Add(1)
	limit := 100
	if s := queryParam(req.URL.RawQuery, "limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 || v > 1000 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = v
	}
	var since int64
	if s := queryParam(req.URL.RawQuery, "since"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			http.Error(w, "bad since", http.StatusBadRequest)
			return
		}
		since = v
	}
	now := p.clock.Now()
	// Binary search to the first doc in the cursor second. The cursor is
	// *inclusive* at second granularity: the boundary second's pastes are
	// re-served on the next page and clients de-duplicate by key — the
	// exclusive alternative silently loses pastes that share the boundary
	// second, and a sub-second final paste would be re-served forever.
	start := sort.Search(len(p.docs), func(i int) bool { return p.docs[i].Posted.Unix() >= since })
	out := make([]PasteMeta, 0, limit)
	for i := start; i < len(p.docs) && len(out) < limit; i++ {
		d := p.docs[i]
		if d.Posted.After(now) {
			break
		}
		out = append(out, PasteMeta{Key: d.ID, Title: d.Title, Date: d.Posted.Unix(), Size: len(d.Body)})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (p *Pastebin) handleItem(w http.ResponseWriter, req *http.Request) {
	p.requests.Add(1)
	key := queryParam(req.URL.RawQuery, "i")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	now := p.clock.Now()
	idx, ok := p.byID[key]
	var doc textgen.Doc
	if ok {
		doc = p.docs[idx]
	}
	delAt, condemned := p.deleteAt[key]
	if !ok || doc.Posted.After(now) || (condemned && !now.Before(delAt)) {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, doc.Body)
}

// IsDeleted reports whether the paste is gone at the given time (used by
// the Table 3 validation and by tests; the crawler only sees 404s).
func (p *Pastebin) IsDeleted(id string, at time.Time) bool {
	delAt, ok := p.deleteAt[id]
	return ok && !at.Before(delAt)
}

// Requests returns how many API requests the service has handled.
func (p *Pastebin) Requests() int64 { return p.requests.Load() }
