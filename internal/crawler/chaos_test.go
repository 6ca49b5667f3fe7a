package crawler

// Chaos-hardening tests: each failure mode a live crawl meets, driven
// against the crawler's retry/backoff/breaker/quarantine machinery. The
// end-to-end invariant (faulted study == fault-free study, bit for bit)
// lives in internal/faults/chaos_test.go; these tests pin the per-mechanism
// contracts that invariant is built from.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doxmeter/internal/faults"
	"doxmeter/internal/sim"
	"doxmeter/internal/simclock"
	"doxmeter/internal/sites"
	"doxmeter/internal/textgen"
)

// TestRetryAfterHonored is the 429 regression test: a pastebin-style
// listing answering 429 + Retry-After must delay the next request by the
// advertised interval. The pre-hardening crawler treated 429 like any 500
// and retried after its ~millisecond backoff, finishing in well under the
// advertised 300ms — which is exactly how crawlers get banned.
func TestRetryAfterHonored(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "0.3")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()

	c := NewPastebin(srv.URL, Options{Retries: 2, Backoff: time.Millisecond})
	start := time.Now()
	if _, err := c.Poll(context.Background()); err != nil {
		t.Fatalf("poll did not recover from 429: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("retry after 429 came after %v, want >= ~300ms (Retry-After ignored)", elapsed)
	}
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Fatalf("calls = %d, want 2", got)
	}
	if s := c.Stats(); s.RateLimited != 1 || s.Retries != 1 {
		t.Fatalf("stats = %+v, want RateLimited=1 Retries=1", s)
	}
}

// TestRetryAfterCapped bounds the damage of a hostile Retry-After header.
func TestRetryAfterCapped(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "3600")
			http.Error(w, "go away", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()
	c := NewPastebin(srv.URL, Options{Retries: 2, Backoff: time.Millisecond, MaxRetryAfter: 50 * time.Millisecond})
	start := time.Now()
	if _, err := c.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hour-long Retry-After not capped: waited %v", elapsed)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"3", 3 * time.Second, true},
		{"0", 0, true},
		{"0.25", 250 * time.Millisecond, true},
		{"-5", 0, false},
		{"soon", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	// HTTP-date form: a date ~2s out parses to roughly that delay.
	date := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	got, ok := parseRetryAfter(date)
	if !ok || got <= 0 || got > 3*time.Second {
		t.Errorf("parseRetryAfter(%q) = (%v, %v)", date, got, ok)
	}
	// A date in the past is not a usable delay.
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if _, ok := parseRetryAfter(past); ok {
		t.Errorf("past HTTP-date accepted")
	}
}

// TestTruncatedBodyTypedError: a response carrying fewer body bytes than
// its Content-Length must surface errors.Is(err, ErrTruncatedBody), not a
// generic read error.
func TestTruncatedBodyTypedError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("0123456789"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}))
	defer srv.Close()

	c := NewPastebin(srv.URL, Options{Retries: -1})
	_, err := c.Poll(context.Background())
	if !errors.Is(err, ErrTruncatedBody) {
		t.Fatalf("truncated transfer surfaced as %v, want ErrTruncatedBody", err)
	}
	if s := c.Stats(); s.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", s.Truncated)
	}
}

// TestTruncatedBodyRetried: truncation is transient — the retry loop must
// absorb it when the next attempt delivers the full body.
func TestTruncatedBodyRetried(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Content-Length", "100")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("012345"))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()
	c := NewPastebin(srv.URL, Options{Retries: 2, Backoff: time.Millisecond})
	if _, err := c.Poll(context.Background()); err != nil {
		t.Fatalf("truncation not absorbed by retry: %v", err)
	}
	if s := c.Stats(); s.Truncated != 1 || s.Retries != 1 {
		t.Fatalf("stats = %+v, want Truncated=1 Retries=1", s)
	}
}

// TestRequestTimeoutBoundsStall: a stalled body read must end in a timeout
// after RequestTimeout instead of hanging the poll, and the next attempt
// recovers.
func TestRequestTimeoutBoundsStall(t *testing.T) {
	var calls int32
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Content-Length", "100")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("01234"))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			select { // stall until the test ends
			case <-release:
			case <-r.Context().Done():
			}
			panic(http.ErrAbortHandler)
		}
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()

	c := NewPastebin(srv.URL, Options{Retries: 2, Backoff: time.Millisecond, RequestTimeout: 80 * time.Millisecond})
	start := time.Now()
	if _, err := c.Poll(context.Background()); err != nil {
		t.Fatalf("stall not recovered: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled body hung the poll for %v", elapsed)
	}
}

// TestCircuitBreakerOpensAndProbes: consecutive failures open the breaker;
// it then admits one probe per cooldown until a probe succeeds and closes
// it. The poll as a whole still completes — the breaker shapes traffic, it
// does not abandon the crawl.
func TestCircuitBreakerOpensAndProbes(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 6 {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()

	c := NewPastebin(srv.URL, Options{
		Retries: 10, Backoff: time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond, BreakerMaxWait: 2 * time.Second,
	})
	start := time.Now()
	if _, err := c.Poll(context.Background()); err != nil {
		t.Fatalf("breaker-guarded poll failed: %v", err)
	}
	elapsed := time.Since(start)
	if got := atomic.LoadInt32(&calls); got != 7 {
		t.Fatalf("calls = %d, want 7 (3 to open + 3 failed probes + 1 success)", got)
	}
	// Requests 4..7 each waited out a ~20ms cooldown before probing.
	if elapsed < 40*time.Millisecond {
		t.Fatalf("probes not paced by cooldown: elapsed %v", elapsed)
	}
	s := c.Stats()
	if s.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1 (probe failures keep it open, not reopen it)", s.BreakerOpens)
	}
}

// TestBreakerGiveUp: when the host stays down past BreakerMaxWait, the
// attempt is abandoned with ErrCircuitOpen instead of blocking forever.
func TestBreakerGiveUp(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := NewPastebin(srv.URL, Options{
		Retries: 6, Backoff: time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: time.Hour, BreakerMaxWait: 30 * time.Millisecond,
	})
	_, err := c.Poll(context.Background())
	if err == nil {
		t.Fatal("dead host poll succeeded")
	}
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("final error = %v, want ErrCircuitOpen", err)
	}
	// Only the 2 opening failures reach the wire; the rest give up at the
	// breaker without hammering the host.
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Fatalf("dead host received %d requests, want 2", got)
	}
	if s := c.Stats(); s.BreakerGiveUps != 5 || s.BreakerOpens != 1 {
		t.Fatalf("stats = %+v, want BreakerGiveUps=5 BreakerOpens=1", s)
	}
}

// TestBreakerCleanFastPath: healthy outcomes from concurrent workers take
// the lock-free path while the breaker is closed and clean, and leave it
// so; threshold failures after them still open it, and once the cooldown
// has passed, concurrent acquirers get exactly one half-open probe.
func TestBreakerCleanFastPath(t *testing.T) {
	const threshold = 3
	b := &breaker{threshold: threshold, cooldown: time.Hour}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := b.acquire(ctx, time.Second); err != nil {
					t.Errorf("clean breaker refused a request: %v", err)
					return
				}
				if b.record(true) || b.isOpen() {
					t.Error("a healthy outcome opened the breaker")
					return
				}
			}
		}()
	}
	wg.Wait()
	if b.dirty.Load() {
		t.Fatal("healthy outcomes left the breaker dirty")
	}
	for i := 1; i <= threshold; i++ {
		if opened := b.record(false); opened != (i == threshold) {
			t.Fatalf("failure %d of %d: opened = %v", i, threshold, opened)
		}
	}
	if !b.isOpen() || !b.dirty.Load() {
		t.Fatal("threshold failures after healthy ones did not open the breaker")
	}
	if err := b.acquire(ctx, 5*time.Millisecond); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("acquire during the cooldown = %v, want ErrCircuitOpen", err)
	}
	b.mu.Lock()
	b.openedAt = time.Now().Add(-time.Hour) // the cooldown has passed
	b.mu.Unlock()
	var probes atomic.Int32
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.acquire(ctx, 20*time.Millisecond) == nil {
				probes.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := probes.Load(); n != 1 {
		t.Fatalf("%d concurrent acquirers admitted after the cooldown, want exactly 1 probe", n)
	}
	if b.record(true); b.isOpen() || b.dirty.Load() {
		t.Fatal("a healthy probe did not close the breaker clean")
	}
}

// corruptBoard serves a minimal board API whose thread 2 returns unparseable
// JSON until healed.
type corruptBoard struct {
	healed atomic.Bool
}

func (b *corruptBoard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch r.URL.Path {
	case "/b/catalog.json":
		w.Write([]byte(`[{"page":0,"threads":[{"no":1,"last_modified":10},{"no":2,"last_modified":10}]}]`))
	case "/b/thread/1.json":
		w.Write([]byte(`{"posts":[{"no":101,"time":5,"com":"first"}]}`))
	case "/b/thread/2.json":
		if b.healed.Load() {
			w.Write([]byte(`{"posts":[{"no":201,"time":6,"com":"second"}]}`))
			return
		}
		w.Write([]byte(`{"posts": [{"no": 201, garbage`))
	default:
		http.NotFound(w, r)
	}
}

// TestCorruptThreadQuarantine: a thread whose JSON stays corrupt through
// every retry is quarantined — counted, skipped, its lastMod uncommitted —
// and the poll carries on. Once the payload heals, the next poll collects
// the thread: corruption delays collection but never loses it, and never
// crashes the crawler.
func TestCorruptThreadQuarantine(t *testing.T) {
	backend := &corruptBoard{}
	srv := httptest.NewServer(backend)
	defer srv.Close()

	c := NewBoard(srv.URL, "b", "4chan/b", Options{Retries: 2, Backoff: time.Millisecond})
	first, err := c.Poll(context.Background())
	if err != nil {
		t.Fatalf("poll with corrupt thread failed hard: %v", err)
	}
	if len(first) != 1 || first[0].ID != "b-101" {
		t.Fatalf("first poll = %v, want just thread 1's post", first)
	}
	s := c.Stats()
	if s.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", s.Quarantined)
	}
	if s.Corrupt != 3 {
		t.Fatalf("Corrupt = %d, want 3 (initial attempt + 2 retries)", s.Corrupt)
	}

	backend.healed.Store(true)
	second, err := c.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 1 || second[0].ID != "b-201" {
		t.Fatalf("healed poll = %v, want thread 2's post (quarantine must not commit lastMod)", second)
	}
}

// TestFaultInjectedCrawlCompletes is the crawler-level integration test:
// a full sweep of the simulated pastebin and a board through a healing
// all-modes fault injector must deliver documents bit-identical to a
// fault-free sweep, with the injector provably having fired.
func TestFaultInjectedCrawlCompletes(t *testing.T) {
	corpus := textgen.New(sim.NewWorld(sim.Default(41, 0.001))).Corpus()
	clock := simclock.NewClock(simclock.Period2.End) // everything visible
	profile := faults.Profile{
		Seed: 11,
		P500: 0.06, P503: 0.03, P429: 0.04, PReset: 0.04,
		PStall: 0.02, PTruncate: 0.05, PCorrupt: 0.05,
		RetryAfter: 5 * time.Millisecond, StallFor: 5 * time.Millisecond,
		MaxFaultsPerURL: 2,
	}
	opts := Options{
		Retries: 6, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 2 * time.Millisecond,
		RequestTimeout: 5 * time.Second, Concurrency: 4,
	}

	// Pastebin: plain vs injected.
	pbDocs := corpus.Streams[textgen.SitePastebin]
	plainSrv := httptest.NewServer(sites.NewPastebin(clock, pbDocs, sites.DeletionModel{}, 9).Handler())
	defer plainSrv.Close()
	inj := faults.NewInjector(profile.ForService("pastebin"), clock, sites.NewPastebin(clock, pbDocs, sites.DeletionModel{}, 9).Handler())
	faultSrv := httptest.NewServer(inj)
	defer faultSrv.Close()

	want, err := NewPastebin(plainSrv.URL, Options{Concurrency: 4}).Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	faulted := NewPastebin(faultSrv.URL, opts)
	got, err := faulted.Poll(context.Background())
	if err != nil {
		t.Fatalf("faulted pastebin sweep failed: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("faulted pastebin sweep diverged: %d vs %d docs", len(want), len(got))
	}
	if c := inj.Counters(); c.Injected() == 0 {
		t.Fatal("pastebin injector never fired")
	} else if s := faulted.Stats(); s.Retries == 0 {
		t.Fatalf("faulted crawl took no retries: %+v", s)
	}

	// Board: plain vs injected.
	bDocs := corpus.Streams[textgen.SiteFourchanB]
	streams := map[string][]textgen.Doc{"b": bDocs}
	plainB := httptest.NewServer(sites.NewBoardSite(clock, streams, 10).Handler())
	defer plainB.Close()
	injB := faults.NewInjector(profile.ForService("board"), clock, sites.NewBoardSite(clock, streams, 10).Handler())
	faultB := httptest.NewServer(injB)
	defer faultB.Close()

	wantB, err := NewBoard(plainB.URL, "b", "4chan/b", Options{Concurrency: 4}).Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := NewBoard(faultB.URL, "b", "4chan/b", opts).Poll(context.Background())
	if err != nil {
		t.Fatalf("faulted board sweep failed: %v", err)
	}
	if !reflect.DeepEqual(wantB, gotB) {
		t.Fatalf("faulted board sweep diverged: %d vs %d docs", len(wantB), len(gotB))
	}
	if injB.Counters().Injected() == 0 {
		t.Fatal("board injector never fired")
	}
}
