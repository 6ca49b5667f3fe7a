package crawler

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"doxmeter/internal/sim"
	"doxmeter/internal/simclock"
	"doxmeter/internal/sites"
	"doxmeter/internal/textgen"
)

func smallCorpus(t *testing.T) *textgen.Corpus {
	t.Helper()
	return textgen.New(sim.NewWorld(sim.Default(41, 0.001))).Corpus()
}

func TestPastebinIncrementalCrawl(t *testing.T) {
	corpus := smallCorpus(t)
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period1.Start)
	pb := sites.NewPastebin(clock, docs, sites.DeletionModel{}, 1)
	srv := httptest.NewServer(pb.Handler())
	defer srv.Close()

	c := NewPastebin(srv.URL, Options{})
	ctx := context.Background()

	collected := map[string]string{}
	// Advance week by week through both periods, polling at each step,
	// with a final poll at the very end of collection.
	poll := func() {
		got, err := c.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range got {
			if _, dup := collected[d.ID]; dup {
				t.Fatalf("document %s collected twice", d.ID)
			}
			collected[d.ID] = d.Body
			if d.Posted.After(clock.Now()) {
				t.Fatal("collected a future document")
			}
		}
	}
	for day := simclock.Period1.Start; day.Before(simclock.Period2.End); day = day.Add(7 * simclock.Day) {
		clock.Set(day)
		poll()
	}
	clock.Set(simclock.Period2.End)
	poll()
	if len(collected) != len(docs) {
		t.Fatalf("collected %d of %d pastes", len(collected), len(docs))
	}
	for _, d := range docs {
		if body, ok := collected[d.ID]; !ok || body != d.Body {
			t.Fatalf("paste %s missing or corrupted", d.ID)
		}
	}
}

func TestPastebinSkipsDeleted(t *testing.T) {
	corpus := smallCorpus(t)
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period2.End.Add(90 * simclock.Day))
	// Everything deleted long ago: listing still shows them (metadata),
	// bodies 404; the crawler must skip, not fail.
	pb := sites.NewPastebin(clock, docs, sites.DeletionModel{DoxRate: 1, OtherRate: 1}, 2)
	srv := httptest.NewServer(pb.Handler())
	defer srv.Close()
	c := NewPastebin(srv.URL, Options{})
	got, err := c.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("collected %d bodies from fully deleted site", len(got))
	}
}

func TestBoardIncrementalCrawl(t *testing.T) {
	corpus := smallCorpus(t)
	docs := corpus.Streams[textgen.SiteFourchanB]
	clock := simclock.NewClock(simclock.Period2.Start)
	site := sites.NewBoardSite(clock, map[string][]textgen.Doc{"b": docs}, 3)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	c := NewBoard(srv.URL, "b", "4chan/b", Options{})
	ctx := context.Background()
	seen := map[string]bool{}
	total := 0
	for day := simclock.Period2.Start; !day.After(simclock.Period2.End); day = day.Add(7 * simclock.Day) {
		clock.Set(day)
		got, err := c.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range got {
			if seen[d.ID] {
				t.Fatalf("post %s collected twice", d.ID)
			}
			seen[d.ID] = true
			if !d.HTML {
				t.Fatal("board post not marked HTML")
			}
			total++
		}
	}
	if total != len(docs) {
		t.Fatalf("collected %d of %d posts", total, len(docs))
	}
}

func TestBoardCatalogCaching(t *testing.T) {
	corpus := smallCorpus(t)
	docs := corpus.Streams[textgen.SiteEightchPol]
	clock := simclock.NewClock(simclock.Period2.End) // all visible
	site := sites.NewBoardSite(clock, map[string][]textgen.Doc{"pol": docs}, 4)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	c := NewBoard(srv.URL, "pol", "8ch/pol", Options{})
	ctx := context.Background()
	if _, err := c.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	afterFirst := c.Stats().Requests
	// Second poll with no new content: only the catalog should be fetched.
	got, err := c.Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("idle poll returned %d posts", len(got))
	}
	if c.Stats().Requests != afterFirst+1 {
		t.Fatalf("idle poll used %d requests, want 1 (catalog only)", c.Stats().Requests-afterFirst)
	}
}

func TestRetryOnTransientErrors(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()
	c := NewPastebin(srv.URL, Options{Retries: 3, Backoff: time.Millisecond})
	if _, err := c.Poll(context.Background()); err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if atomic.LoadInt32(&calls) != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestGivesUpAfterRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewPastebin(srv.URL, Options{Retries: 2, Backoff: time.Millisecond})
	if _, err := c.Poll(context.Background()); err == nil {
		t.Fatal("permanent failure not reported")
	}
}

func TestContextCancellation(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer srv.Close()
	defer close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := NewPastebin(srv.URL, Options{})
	start := time.Now()
	_, err := c.Poll(ctx)
	if err == nil {
		t.Fatal("cancelled poll succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation not honored promptly")
	}
}

func TestRateLimiting(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()
	c := NewPastebin(srv.URL, Options{MinInterval: 30 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := c.Poll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("4 rate-limited polls took only %v", elapsed)
	}
}

// flakyProxy forwards to a backend handler but fails the nth request whose
// URL contains substr (once) with a 500 — injecting the transient mid-page
// failure of a live crawl.
type flakyProxy struct {
	backend http.Handler
	substr  string
	failN   int32 // fail the nth matching request (1-based)
	count   int32
	failed  int32
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.URL.String(), p.substr) {
		n := atomic.AddInt32(&p.count, 1)
		if n == p.failN && atomic.CompareAndSwapInt32(&p.failed, 0, 1) {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
	}
	p.backend.ServeHTTP(w, r)
}

// TestPastebinNoLossOnMidPageFailure is the regression test for the crawler
// data-loss bug: a transient failure fetching one paste body mid-page must
// not commit that paste as seen — the next Poll has to deliver it.
func TestPastebinNoLossOnMidPageFailure(t *testing.T) {
	corpus := smallCorpus(t)
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period2.End) // everything visible
	pb := sites.NewPastebin(clock, docs, sites.DeletionModel{}, 5)
	proxy := &flakyProxy{backend: pb.Handler(), substr: "api_scrape_item", failN: 3}
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	// Retries disabled so the injected failure surfaces instead of being
	// absorbed by the retry loop.
	c := NewPastebin(srv.URL, Options{Retries: -1})
	ctx := context.Background()

	first, err := c.Poll(ctx)
	if err == nil {
		t.Fatal("transient failure not surfaced")
	}
	second, err := c.Poll(ctx)
	if err != nil {
		t.Fatalf("re-poll failed: %v", err)
	}
	collected := map[string]bool{}
	for _, d := range append(first, second...) {
		if collected[d.ID] {
			t.Fatalf("paste %s delivered twice", d.ID)
		}
		collected[d.ID] = true
	}
	for _, d := range docs {
		if !collected[d.ID] {
			t.Fatalf("paste %s lost after transient failure (got %d of %d)", d.ID, len(collected), len(docs))
		}
	}
}

// TestBoardNoLossOnTransientFailure mirrors the pastebin regression for the
// board crawler: a failed thread fetch must leave the thread uncommitted so
// the next Poll retries it.
func TestBoardNoLossOnTransientFailure(t *testing.T) {
	corpus := smallCorpus(t)
	docs := corpus.Streams[textgen.SiteFourchanB]
	clock := simclock.NewClock(simclock.Period2.End)
	site := sites.NewBoardSite(clock, map[string][]textgen.Doc{"b": docs}, 6)
	proxy := &flakyProxy{backend: site.Handler(), substr: "/thread/", failN: 2}
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	c := NewBoard(srv.URL, "b", "4chan/b", Options{Retries: -1})
	ctx := context.Background()

	first, err := c.Poll(ctx)
	if err == nil {
		t.Fatal("transient failure not surfaced")
	}
	second, err := c.Poll(ctx)
	if err != nil {
		t.Fatalf("re-poll failed: %v", err)
	}
	collected := map[string]bool{}
	for _, d := range append(first, second...) {
		if collected[d.ID] {
			t.Fatalf("post %s delivered twice", d.ID)
		}
		collected[d.ID] = true
	}
	if len(collected) != len(docs) {
		t.Fatalf("collected %d of %d posts across failure + re-poll", len(collected), len(docs))
	}
}

// TestRetriesDisabled verifies the Retries zero-value fix: negative
// disables retries entirely (zero still means the default of 2).
func TestRetriesDisabled(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewPastebin(srv.URL, Options{Retries: -1, Backoff: time.Millisecond})
	if _, err := c.Poll(context.Background()); err == nil {
		t.Fatal("failure not reported")
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("retries-disabled crawler made %d attempts, want 1", got)
	}
}

// TestRequestAndErrorAccounting verifies failed attempts are counted: every
// attempt shows up in Stats().Requests and every failure in Stats().Errors.
func TestRequestAndErrorAccounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewPastebin(srv.URL, Options{Retries: 2, Backoff: time.Millisecond})
	_, _ = c.Poll(context.Background())
	if got := c.Stats().Requests; got != 3 {
		t.Errorf("Stats().Requests = %d, want 3 (1 + 2 retries)", got)
	}
	if got := c.Stats().Errors; got != 3 {
		t.Errorf("Stats().Errors = %d, want 3", got)
	}

	// A dead host (dial failure, no HTTP response at all) must count too.
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv2.Close() // nothing listening anymore
	c2 := NewPastebin(srv2.URL, Options{Retries: -1})
	_, _ = c2.Poll(context.Background())
	if s := c2.Stats(); s.Requests != 1 || s.Errors != 1 {
		t.Errorf("dead host: Stats() Requests=%d Errors=%d, want 1/1", s.Requests, s.Errors)
	}
}

// TestConcurrentPollMatchesSerial checks that Options.Concurrency changes
// neither the set nor the order of delivered documents.
func TestConcurrentPollMatchesSerial(t *testing.T) {
	corpus := smallCorpus(t)
	pbDocs := corpus.Streams[textgen.SitePastebin]
	boardDocs := corpus.Streams[textgen.SiteEightchPol]
	clock := simclock.NewClock(simclock.Period2.End)
	pb := sites.NewPastebin(clock, pbDocs, sites.DeletionModel{}, 7)
	board := sites.NewBoardSite(clock, map[string][]textgen.Doc{"pol": boardDocs}, 8)
	pbSrv := httptest.NewServer(pb.Handler())
	defer pbSrv.Close()
	boardSrv := httptest.NewServer(board.Handler())
	defer boardSrv.Close()
	ctx := context.Background()

	serialPB, err := NewPastebin(pbSrv.URL, Options{}).Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	parallelPB, err := NewPastebin(pbSrv.URL, Options{Concurrency: 8}).Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialPB, parallelPB) {
		t.Fatalf("pastebin: parallel poll diverged (serial %d docs, parallel %d)", len(serialPB), len(parallelPB))
	}

	serialBoard, err := NewBoard(boardSrv.URL, "pol", "8ch/pol", Options{}).Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	parallelBoard, err := NewBoard(boardSrv.URL, "pol", "8ch/pol", Options{Concurrency: 8}).Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialBoard, parallelBoard) {
		t.Fatalf("board: parallel poll diverged (serial %d docs, parallel %d)", len(serialBoard), len(parallelBoard))
	}
}

func TestBadJSONSurfaced(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{not json`))
	}))
	defer srv.Close()
	if _, err := NewPastebin(srv.URL, Options{}).Poll(context.Background()); err == nil {
		t.Error("bad listing JSON accepted")
	}
	if _, err := NewBoard(srv.URL, "b", "x", Options{}).Poll(context.Background()); err == nil {
		t.Error("bad catalog JSON accepted")
	}
}

// chunkReader yields its data a few bytes at a time, then err, and counts
// the bytes handed out.
type chunkReader struct {
	data  string
	chunk int
	err   error
	read  int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.read == len(r.data) {
		return 0, r.err
	}
	n := copy(p[:min(len(p), r.chunk)], r.data[r.read:])
	r.read += n
	return n, nil
}

// TestAppendAllLimit: the bounded read stops at exactly limit bytes
// without reading further, as an io.LimitReader would; a body that ends
// first keeps its own outcome.
func TestAppendAllLimit(t *testing.T) {
	r := &chunkReader{data: strings.Repeat("a", 100), chunk: 7, err: io.ErrUnexpectedEOF}
	got, err := appendAll(r, make([]byte, 0, 8), 50)
	if err != nil || len(got) != 50 || r.read != 50 {
		t.Fatalf("limit 50: got %d bytes, read %d, err %v; want 50, 50, nil", len(got), r.read, err)
	}
	r = &chunkReader{data: strings.Repeat("b", 30), chunk: 7, err: io.ErrUnexpectedEOF}
	got, err = appendAll(r, nil, 50)
	if !errors.Is(err, io.ErrUnexpectedEOF) || string(got) != strings.Repeat("b", 30) {
		t.Fatalf("short body: got %d bytes, err %v; want 30 and io.ErrUnexpectedEOF", len(got), err)
	}
	r = &chunkReader{data: "exact", chunk: 2, err: io.EOF}
	if got, err = appendAll(r, nil, 5); err != nil || string(got) != "exact" {
		t.Fatalf("body at the limit: %q, %v", got, err)
	}
}
