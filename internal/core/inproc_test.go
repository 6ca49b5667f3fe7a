package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"doxmeter/internal/crawler"
	"doxmeter/internal/faults"
	"doxmeter/internal/leakcheck"
	"doxmeter/internal/telemetry"
)

// inprocHost is the URL host the unit tests register their handlers
// under; nothing listens there.
const inprocHost = "inproc.test:80"

func inprocClient(h http.Handler) *http.Client {
	return &http.Client{Transport: &localTransport{handlers: map[string]http.Handler{inprocHost: h}}}
}

// inprocFetcher is a Fetcher over localTransport with retries and the
// breaker off, so each call is exactly one attempt.
func inprocFetcher(h http.Handler, timeout time.Duration) *crawler.Fetcher {
	return crawler.NewFetcher(crawler.Options{
		Client:           inprocClient(h),
		Retries:          -1,
		BreakerThreshold: -1,
		RequestTimeout:   timeout,
	})
}

// bodyHandler serves body as a 200 with its length advertised, the shape
// of every site handler the injector's partial modes fault.
func bodyHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = io.WriteString(w, body)
	})
}

func injected(p faults.Profile, inner http.Handler) http.Handler {
	p.Seed = 1
	p.MaxFaultsPerURL = -1 // never heal: every request is faulted
	return faults.NewInjector(p, nil, inner)
}

// TestLocalTransportAbortBeforeWrite: a handler that aborts before any
// response bytes (the injector's reset mode) fails Do with a connection
// error, as a reset socket does.
func TestLocalTransportAbortBeforeWrite(t *testing.T) {
	for name, h := range map[string]http.Handler{
		"injector reset": injected(faults.Profile{PReset: 1}, bodyHandler("never sent")),
		"plain panic":    http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") }),
	} {
		resp, err := inprocClient(h).Get("http://" + inprocHost + "/x")
		if err == nil {
			resp.Body.Close()
			t.Fatalf("%s: Do returned status %d, want a connection error", name, resp.StatusCode)
		}
		if !errors.Is(err, errConnAborted) {
			t.Fatalf("%s: err = %v, want errConnAborted", name, err)
		}
	}
}

// TestLocalTransportTruncatedBody: an abort after a partial write under the
// full advertised Content-Length reads as a 200 whose body ends early in
// io.ErrUnexpectedEOF, which the Fetcher reports as ErrTruncatedBody.
func TestLocalTransportTruncatedBody(t *testing.T) {
	body := strings.Repeat("x", 2000)
	h := injected(faults.Profile{PTruncate: 1}, bodyHandler(body))

	resp, err := inprocClient(h).Get("http://" + inprocHost + "/x")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != 2000 {
		t.Fatalf("status %d, Content-Length %d, want 200 and 2000", resp.StatusCode, resp.ContentLength)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(got) != 1000 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read %d bytes, err %v; want 1000 then io.ErrUnexpectedEOF", len(got), err)
	}

	_, err = inprocFetcher(h, 0).Get(context.Background(), "http://"+inprocHost+"/x")
	if !errors.Is(err, crawler.ErrTruncatedBody) {
		t.Fatalf("Fetcher err = %v, want ErrTruncatedBody", err)
	}
}

// TestLocalTransportStallHonorsDeadline: a stall far longer than the
// Fetcher's RequestTimeout ends at the deadline with
// context.DeadlineExceeded, and leaves no goroutine behind.
func TestLocalTransportStallHonorsDeadline(t *testing.T) {
	const stallFor = 10 * time.Second
	settle := leakcheck.Mark(t)
	h := injected(faults.Profile{PStall: 1, StallFor: stallFor}, bodyHandler(strings.Repeat("s", 512)))
	f := inprocFetcher(h, 50*time.Millisecond)

	start := time.Now()
	_, err := f.Get(context.Background(), "http://"+inprocHost+"/x")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed >= stallFor/2 {
		t.Fatalf("stalled fetch returned after %v, want the 50ms deadline", elapsed)
	}
	settle()
}

// TestLocalTransportNoCarryOver: a pooled exchange carries nothing from
// one request into the next — not the status, not a header such as a
// 429's Retry-After, not the body.
func TestLocalTransportNoCarryOver(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if len(w.Header()) != 0 {
			t.Errorf("%s: handler saw a stale header map %v", r.URL.Path, w.Header())
		}
		switch r.URL.Path {
		case "/limited":
			w.Header().Set("Retry-After", "7")
			http.Error(w, "slow down", http.StatusTooManyRequests)
		case "/missing":
			http.NotFound(w, r)
		default:
			_, _ = io.WriteString(w, "ok")
		}
	})
	c := inprocClient(h)
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := c.Get("http://" + inprocHost + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}
	for i := 0; i < 50; i++ {
		prev := "/limited"
		if i%2 == 1 {
			prev = "/missing"
		}
		resp, _ := get(prev)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s answered 200", prev)
		}
		resp.Body.Close()
		resp, body := get("/ok")
		if resp.StatusCode != http.StatusOK || body != "ok" {
			t.Fatalf("after %s: status %d body %q, want 200 \"ok\"", prev, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Fatalf("after %s: Retry-After %q carried into the next response", prev, ra)
		}
		if resp.ContentLength != 2 {
			t.Fatalf("after %s: Content-Length %d, want 2", prev, resp.ContentLength)
		}
		resp.Body.Close()
	}
}

// TestLocalTransportConcurrent: fetches racing on one transport each get
// their own status, header and body back, however the pool hands the
// exchanges around.
func TestLocalTransportConcurrent(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Path", r.URL.Path)
		if strings.HasSuffix(r.URL.Path, "/7") {
			w.WriteHeader(http.StatusNotFound)
		}
		_, _ = io.WriteString(w, r.URL.Path)
	})
	c := inprocClient(h)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := "/" + strconv.Itoa(g) + "/" + strconv.Itoa(i%10)
				resp, err := c.Get("http://" + inprocHost + path)
				if err != nil {
					t.Error(err)
					return
				}
				want := http.StatusOK
				if i%10 == 7 {
					want = http.StatusNotFound
				}
				got, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != want || resp.Header.Get("X-Path") != path || string(got) != path {
					t.Errorf("%s: status %d, X-Path %q, body %q", path, resp.StatusCode, resp.Header.Get("X-Path"), got)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// TestLocalTransportWriteString: Write and WriteString record
// byte-identical bodies, with and without the HTTP metrics middleware in
// front.
func TestLocalTransportWriteString(t *testing.T) {
	body := strings.Repeat("paste body line\n", 300)
	byWrite := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write([]byte(body)) })
	byString := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, body) })
	reg := telemetry.NewRegistry()
	for name, h := range map[string]http.Handler{
		"Write":                 byWrite,
		"WriteString":           byString,
		"metrics + Write":       telemetry.HTTPMetrics(reg, "a", nil, byWrite),
		"metrics + WriteString": telemetry.HTTPMetrics(reg, "b", nil, byString),
	} {
		got, err := inprocFetcher(h, 0).Get(context.Background(), "http://"+inprocHost+"/x")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, []byte(body)) {
			t.Fatalf("%s: body differs (%d bytes, want %d)", name, len(got), len(body))
		}
	}
}

// TestLocalTransportRoundTripAllocFree: with a handler that allocates
// nothing, one in-process round trip allocates nothing either — no
// goroutine, channel or closure per request, no []byte copy of a string
// body, and the exchange, its header map and its Response all come back
// from the pool.
func TestLocalTransportRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	body := strings.Repeat("r", 900)
	lt := &localTransport{handlers: map[string]http.Handler{
		inprocHost: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, body) }),
	}}
	req, err := http.NewRequest(http.MethodGet, "http://"+inprocHost+"/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf [1024]byte
	if allocs := testing.AllocsPerRun(200, func() {
		resp, err := lt.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := io.ReadFull(resp.Body, buf[:len(body)]); n != len(body) {
			t.Fatalf("read %d bytes, want %d", n, len(body))
		}
		resp.Body.Close()
	}); allocs != 0 {
		t.Fatalf("one round trip allocated %.0f times, want 0", allocs)
	}
}

// TestLocalTransportFallsThrough: a host with no registered handler goes
// to the real transport.
func TestLocalTransportFallsThrough(t *testing.T) {
	srv := httptest.NewServer(bodyHandler("from the wire"))
	defer srv.Close()
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	got, err := inprocFetcher(bodyHandler("in process"), 0).Get(context.Background(), srv.URL+"/x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "from the wire" {
		t.Fatalf("body = %q, want the real server's", got)
	}
}

// TestLocalTransportBodyCap: a body over the Fetcher's 16 MiB cap is read
// up to the cap and no further; the longer Content-Length then reports the
// transfer as truncated.
func TestLocalTransportBodyCap(t *testing.T) {
	const limit = 16 << 20
	body := strings.Repeat("z", limit+1)
	_, err := inprocFetcher(bodyHandler(body), 0).Get(context.Background(), "http://"+inprocHost+"/big")
	if !errors.Is(err, crawler.ErrTruncatedBody) {
		t.Fatalf("err = %v, want ErrTruncatedBody", err)
	}
	if want := "got " + strconv.Itoa(limit) + " of " + strconv.Itoa(limit+1) + " bytes"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to report %q", err, want)
	}
}

// BenchmarkLocalTransportGetText is the in-process cost of one fetch: a
// Fetcher.GetText through localTransport against a 900-byte handler.
func BenchmarkLocalTransportGetText(b *testing.B) {
	f := inprocFetcher(bodyHandler(strings.Repeat("b", 900)), 30*time.Second)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.GetText(ctx, "http://"+inprocHost+"/item?i=abc"); err != nil {
			b.Fatal(err)
		}
	}
}
