package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"doxmeter/internal/core"
	"doxmeter/internal/sites"
	"doxmeter/internal/textgen"
)

// resultDigest fingerprints a finished study's results: the funnel
// counts, every dox record's site, ID, text digest and labels, the dedup
// verdict counts and every monitor observation. Reps of one workload and
// seed must agree on it, and so must batch and streaming runs of the same
// seed and scale.
func resultDigest(s *core.Study) string {
	h := sha256.New()
	fmt.Fprintf(h, "collected %d flagged %v\n", s.Collected, s.FlaggedByPeriod)
	sitesSeen := make([]string, 0, len(s.CollectedBySite))
	for site := range s.CollectedBySite {
		sitesSeen = append(sitesSeen, site)
	}
	sort.Strings(sitesSeen)
	for _, site := range sitesSeen {
		fmt.Fprintf(h, "site %s %d\n", site, s.CollectedBySite[site])
	}
	for _, d := range s.Doxes {
		fmt.Fprintf(h, "dox %s %s %s %+v\n", d.Site, d.DocID, d.TextDigest, d.Labels)
	}
	fmt.Fprintf(h, "dedup %+v\n", s.Deduper.Stats())
	hist := s.Monitor.Histories()
	sort.Slice(hist, func(i, j int) bool {
		if a, b := hist[i].Ref.Key(), hist[j].Ref.Key(); a != b {
			return a < b
		}
		return hist[i].NumericID < hist[j].NumericID
	})
	for _, hi := range hist {
		fmt.Fprintf(h, "account %s %d", hi.Ref.Key(), hi.NumericID)
		for _, o := range hi.Obs {
			fmt.Fprintf(h, " %d:%d", o.Time.Unix(), o.Status)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corpusIndex maps crawled documents back to the generated corpus. Corpus
// IDs are unique within a site's stream only, and the crawlers name their
// sites after the streams they crawl.
type corpusIndex struct {
	study *core.Study
	docs  map[string]*textgen.Doc // by "<site>/<corpus id>"
}

func newCorpusIndex(s *core.Study) *corpusIndex {
	c := s.Corpus()
	ix := &corpusIndex{study: s, docs: make(map[string]*textgen.Doc, c.TotalDocs())}
	for _, site := range textgen.AllSites() {
		for i := range c.Streams[site] {
			d := &c.Streams[site][i]
			ix.docs[string(site)+"/"+d.ID] = d
		}
	}
	return ix
}

// lookup resolves a crawled (site, id) to its corpus document. Pastebin
// keys are corpus IDs; board documents are "<board>-<post no>" and go
// through the board site's post index.
func (ix *corpusIndex) lookup(site, id string) (*textgen.Doc, error) {
	if site != string(textgen.SitePastebin) {
		var bs *sites.BoardSite
		switch {
		case strings.HasPrefix(site, "4chan/"):
			bs = ix.study.Fourchan
		case strings.HasPrefix(site, "8ch/"):
			bs = ix.study.Eightch
		default:
			return nil, fmt.Errorf("unknown site %q", site)
		}
		board, no, ok := strings.Cut(id, "-")
		post, err := strconv.ParseInt(no, 10, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("malformed board document id %q", id)
		}
		if id, ok = bs.DocIDForPost(board, post); !ok {
			return nil, fmt.Errorf("no post %s/%d on %s", board, post, site)
		}
	}
	d, ok := ix.docs[site+"/"+id]
	if !ok {
		return nil, fmt.Errorf("document %s/%s is not in the corpus", site, id)
	}
	return d, nil
}

// grade measures the detected doxes against ground truth: precision is
// the share of dox records whose document is a true dox, victim recall
// the share of doxed victims with at least one detected dox.
func grade(s *core.Study) (precision, recall float64, err error) {
	ix := newCorpusIndex(s)
	doxed := make(map[int]bool)
	for _, d := range ix.docs {
		if d.IsDox() {
			doxed[d.Truth.Victim.ID] = true
		}
	}
	found := make(map[int]bool)
	truePos := 0
	for _, rec := range s.Doxes {
		d, err := ix.lookup(rec.Site, rec.DocID)
		if err != nil {
			return 0, 0, err
		}
		if d.IsDox() {
			truePos++
			found[d.Truth.Victim.ID] = true
		}
	}
	if len(s.Doxes) == 0 || len(doxed) == 0 {
		return 0, 0, fmt.Errorf("%d dox records, %d doxed victims", len(s.Doxes), len(doxed))
	}
	return float64(truePos) / float64(len(s.Doxes)), float64(len(found)) / float64(len(doxed)), nil
}
