package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"doxmeter/internal/classifier"
	"doxmeter/internal/crawler"
	"doxmeter/internal/extract"
	"doxmeter/internal/faults"
	"doxmeter/internal/textgen"
	"doxmeter/internal/tfidf"
)

// TestStudyKernelEquivalence is the whole-system equivalence bar for the
// fused inference kernels, in two parts:
//
//   - Every document of a study's corpus, delivered as the crawlers deliver
//     it and prepared by prepareDoc, gets the same margin and token count
//     from the fused classifier as from ScoreReference and tfidf.Tokenize,
//     bit for bit, and every flagged one the same extraction from the fused
//     kernel as from extract.ExtractReference, field by field. These are
//     all the texts a study can prepare, faults or not: the injector
//     corrupts only JSON and HTML payloads, which then fail to parse and
//     are retried.
//   - Whole studies on the fused kernels at Parallelism 1 and 0
//     (GOMAXPROCS), with fault injection live, are byte-identical.
//
// This is the test `make chaos` runs.
func TestStudyKernelEquivalence(t *testing.T) {
	if raceEnabled {
		t.Skip("two whole studies under the race detector exceed the package time budget; `make chaos` runs this natively")
	}
	build := func(parallelism int) *Study {
		profile, err := faults.Preset("mild", 77)
		if err != nil {
			t.Fatal(err)
		}
		// Wall-clock delays never change the virtual-time results: keep
		// the fault probabilities, shrink the clocks.
		profile.RetryAfter = 5 * time.Millisecond
		profile.StallFor = 5 * time.Millisecond
		s, err := NewStudy(StudyConfig{
			Seed:          23,
			Scale:         0.003,
			ControlSample: 200,
			Parallelism:   parallelism,
			Faults:        profile,
			Crawl:         crawler.Options{Backoff: 2 * time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	studies := []*Study{build(1), build(0)}
	// Before any Run, while the corpus and classifier are only read.
	checkCorpusKernels(t, studies[0])

	errs := make([]error, len(studies))
	var wg sync.WaitGroup
	for i, s := range studies {
		wg.Add(1)
		go func(i int, s *Study) {
			defer wg.Done()
			errs[i] = s.Run(context.Background())
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("study %d: %v", i, err)
		}
	}
	compareStudies(t, studies[0], studies[1])
	if t.Failed() {
		t.Fatal("fused kernels diverged between Parallelism 1 and 0")
	}
}

// checkCorpusKernels prepares every corpus document of s as the crawlers
// deliver it (board posts arrive as HTML comment bodies, pastes as plain
// text) and holds the fused kernels to the reference implementations.
func checkCorpusKernels(t *testing.T, s *Study) {
	t.Helper()
	docs, flagged := 0, 0
	for _, site := range textgen.AllSites() {
		for _, src := range s.Corpus().Streams[site] {
			doc := crawler.Doc{Site: string(site), ID: src.ID, Body: src.Body, HTML: site.IsBoard()}
			pre := s.prepareDoc(&doc)
			docs++
			var res classifier.Result
			s.Classifier.ScoreInto(pre.Text, &res)
			ref := s.Classifier.ScoreReference(pre.Text)
			if math.Float64bits(res.Score) != math.Float64bits(ref) {
				t.Fatalf("%s/%s: fused margin %v (bits %x) != reference %v (bits %x)",
					site, src.ID, res.Score, math.Float64bits(res.Score), ref, math.Float64bits(ref))
			}
			if want := len(tfidf.Tokenize(pre.Text)); res.Tokens != want {
				t.Fatalf("%s/%s: fused token count %d != %d", site, src.ID, res.Tokens, want)
			}
			if !pre.IsDox {
				continue
			}
			flagged++
			if want := extract.ExtractReference(pre.Text, s.Cfg.Extract); !reflect.DeepEqual(pre.Extraction, want) {
				t.Fatalf("%s/%s: fused extraction diverged:\n%+v\nreference:\n%+v", site, src.ID, pre.Extraction, want)
			}
		}
	}
	if flagged == 0 {
		t.Fatalf("none of %d corpus documents flagged; the extraction check compared nothing", docs)
	}
	t.Logf("%d corpus documents, %d flagged", docs, flagged)
}

// compareStudies asserts every externally visible study output matches.
func compareStudies(t *testing.T, a, b *Study) {
	t.Helper()
	if a.Collected != b.Collected {
		t.Errorf("Collected: %d vs %d", a.Collected, b.Collected)
	}
	if len(a.CollectedBySite) != len(b.CollectedBySite) {
		t.Errorf("CollectedBySite size: %d vs %d", len(a.CollectedBySite), len(b.CollectedBySite))
	}
	for site, n := range a.CollectedBySite {
		if b.CollectedBySite[site] != n {
			t.Errorf("CollectedBySite[%s]: %d vs %d", site, n, b.CollectedBySite[site])
		}
	}
	if a.FlaggedByPeriod != b.FlaggedByPeriod {
		t.Errorf("FlaggedByPeriod: %v vs %v", a.FlaggedByPeriod, b.FlaggedByPeriod)
	}
	if len(a.Doxes) != len(b.Doxes) {
		t.Fatalf("Doxes: %d vs %d", len(a.Doxes), len(b.Doxes))
	}
	for i := range a.Doxes {
		x, y := a.Doxes[i], b.Doxes[i]
		if x.DocID != y.DocID || x.Site != y.Site || !x.Posted.Equal(y.Posted) ||
			x.Period != y.Period || x.Text != y.Text {
			t.Fatalf("dox %d diverged: %s/%s vs %s/%s", i, x.Site, x.DocID, y.Site, y.DocID)
		}
		// The extractions themselves must agree field by field, not just
		// through their dedup keys.
		if !reflect.DeepEqual(x.Extraction, y.Extraction) {
			t.Fatalf("dox %d extraction diverged:\n%+v\nvs\n%+v", i, x.Extraction, y.Extraction)
		}
	}
	if a.Deduper.Stats() != b.Deduper.Stats() {
		t.Errorf("dedup stats: %+v vs %+v", a.Deduper.Stats(), b.Deduper.Stats())
	}
	ah, bh := a.Monitor.Histories(), b.Monitor.Histories()
	if len(ah) != len(bh) {
		t.Fatalf("monitor histories: %d vs %d", len(ah), len(bh))
	}
	for i := range ah {
		x, y := ah[i], bh[i]
		if x.Ref != y.Ref || x.Verified != y.Verified || len(x.Obs) != len(y.Obs) {
			t.Fatalf("history %v diverged (%d vs %d observations)", x.Ref, len(x.Obs), len(y.Obs))
		}
	}
}
