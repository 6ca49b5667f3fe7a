package sites

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"doxmeter/internal/randutil"
	"doxmeter/internal/simclock"
	"doxmeter/internal/textgen"
)

// Mirror simulates the secondary dox-distribution venues the paper
// investigated before settling on its three sources (§3.1.1): onion sites,
// torrents of dox archives, and small anonymous text hosts. The paper found
// these "generally host copies of doxes already shared on pastebin.com,
// 4chan.org and 8ch.net" — which is what justified limiting collection to
// the big three. A Mirror therefore re-hosts a sample of doxes drawn from
// the primary corpus (with the usual repost mutations) plus a small novel
// remainder, and the SectionMirrors experiment re-derives the paper's
// redundancy claim by running the mirror's content through the study's
// de-duplicator.
//
// API:
//
//	GET /index.json        — [{"id","posted"}] of currently visible files
//	GET /file/{id}         — raw text
type Mirror struct {
	clock *simclock.Clock

	mu   sync.RWMutex
	docs []textgen.Doc // sorted by Posted
	byID map[string]int
}

// MirrorConfig sizes the mirror.
type MirrorConfig struct {
	// CopyFraction is the share of hosted files that are copies of
	// primary-corpus doxes (the paper's finding: nearly all). The rest
	// are novel doxes seen nowhere else.
	CopyFraction float64
	// Files is how many files the mirror hosts.
	Files int
}

// DefaultMirrorConfig matches the paper's qualitative finding.
func DefaultMirrorConfig(scale float64) MirrorConfig {
	files := int(400*scale + 0.5)
	if files < 30 {
		files = 30
	}
	return MirrorConfig{CopyFraction: 0.95, Files: files}
}

// NewMirror builds a mirror re-hosting doxes from the given corpus. gen
// supplies repost mutations and novel doxes.
func NewMirror(clock *simclock.Clock, corpus *textgen.Corpus, gen *textgen.Generator, cfg MirrorConfig, seed int64) *Mirror {
	r := randutil.New(seed)
	var primaries []textgen.Doc
	for _, site := range textgen.AllSites() {
		for _, d := range corpus.Streams[site] {
			if d.IsDox() && !d.HTML {
				primaries = append(primaries, d)
			}
		}
	}
	m := &Mirror{clock: clock, byID: make(map[string]int)}
	span := simclock.Period2.End.Sub(simclock.Period1.Start)
	for i := 0; i < cfg.Files && len(primaries) > 0; i++ {
		id := fmt.Sprintf("m%06d", i)
		var doc textgen.Doc
		if randutil.Bool(r, cfg.CopyFraction) {
			src := primaries[r.Intn(len(primaries))]
			body := src.Body
			if randutil.Bool(r, 0.5) {
				body = gen.NearDuplicate(r, body)
			}
			// Mirrors re-host after the original appears.
			lag := time.Duration(1+r.Intn(21)) * simclock.Day
			doc = textgen.Doc{
				ID: id, Site: "mirror", Body: body,
				Posted: src.Posted.Add(lag),
				Truth:  src.Truth,
			}
		} else {
			v := gen.World().ExampleVictim(r)
			render := gen.Dox(r, v)
			doc = textgen.Doc{
				ID: id, Site: "mirror", Body: render.Body,
				Posted: simclock.Period1.Start.Add(time.Duration(r.Int63n(int64(span)))),
				Truth:  &textgen.Truth{Victim: v, Render: render},
			}
		}
		m.docs = append(m.docs, doc)
	}
	sort.SliceStable(m.docs, func(i, j int) bool { return m.docs[i].Posted.Before(m.docs[j].Posted) })
	for i, d := range m.docs {
		m.byID[d.ID] = i
	}
	return m
}

// MirrorEntry is one index row.
type MirrorEntry struct {
	ID     string `json:"id"`
	Posted int64  `json:"posted"`
}

// Handler serves the mirror API.
func (m *Mirror) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/index.json", func(w http.ResponseWriter, req *http.Request) {
		now := m.clock.Now()
		m.mu.RLock()
		defer m.mu.RUnlock()
		out := make([]MirrorEntry, 0, len(m.docs))
		for _, d := range m.docs {
			if d.Posted.After(now) {
				break
			}
			out = append(out, MirrorEntry{ID: d.ID, Posted: d.Posted.Unix()})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/file/", func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimPrefix(req.URL.Path, "/file/")
		now := m.clock.Now()
		m.mu.RLock()
		idx, ok := m.byID[id]
		var doc textgen.Doc
		if ok {
			doc = m.docs[idx]
		}
		m.mu.RUnlock()
		if !ok || doc.Posted.After(now) {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, doc.Body)
	})
	return mux
}
