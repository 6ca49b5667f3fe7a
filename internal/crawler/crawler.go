// Package crawler implements the collection stage of the paper's pipeline
// (§3.1.1): incremental HTTP crawlers for a pastebin-style scraping API and
// for 4chan/8ch-style board JSON APIs.
//
// Each crawler is a poller: Poll performs one incremental sweep, returning
// only documents not seen in previous sweeps. The study driver interleaves
// clock advancement with polling, exactly as the paper's collection
// infrastructure tailed the live sites for thirteen weeks. The shared
// Fetcher underneath survives the failure modes of a live crawl: transient
// errors retry with seeded-jitter exponential backoff, 429/503 Retry-After
// hints are honored, truncated transfers surface as ErrTruncatedBody and
// retry, corrupt payloads surface as ErrCorruptPayload (and board threads
// carrying them are quarantined rather than committed), and a per-host
// circuit breaker with half-open probing sheds load from a down host
// instead of hammering it. A configurable minimum request interval provides
// the polite rate limiting a real deployment needs.
//
// Failure consistency is the invariant everything above relies on: per-
// document seen/cursor state commits only after a document's body is
// definitively in hand, so no fault — however ill-timed — can make a Poll
// skip a document forever. The chaos suite in internal/faults exercises
// every mode against this contract.
package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"doxmeter/internal/parallel"
	"doxmeter/internal/randutil"
	"doxmeter/internal/telemetry"
)

// Doc is one collected document, normalized across sources.
type Doc struct {
	Site   string
	ID     string
	Title  string
	Body   string
	HTML   bool
	Posted time.Time
}

// Typed fetch failures. Callers distinguish these with errors.Is; everything
// else coming out of a Fetcher is a generic transport or status error.
var (
	// ErrNotFound marks 404s, which are terminal (no retry): deletions and
	// prune races are expected outcomes of a live crawl, not faults.
	ErrNotFound = errors.New("not found")
	// ErrTruncatedBody marks a response whose body carried fewer bytes
	// than its Content-Length advertised (or ended mid-transfer). It is
	// retryable: the document itself is fine, the transfer was not.
	ErrTruncatedBody = errors.New("truncated body")
	// ErrCorruptPayload marks a 200 response whose body failed structural
	// validation (unparseable JSON, markerless HTML). Retryable; a caller
	// seeing it persist must quarantine the document — count and skip —
	// rather than commit garbage or advance state past it.
	ErrCorruptPayload = errors.New("corrupt payload")
	// ErrCircuitOpen reports that the per-host circuit breaker stayed open
	// longer than Options.BreakerMaxWait. It consumes one retry attempt.
	ErrCircuitOpen = errors.New("circuit open")
)

// retryAfterError carries a server's explicit back-pressure signal (429 or
// 503 with a Retry-After header). The retry loop sleeps the advertised
// delay instead of its own backoff. The breaker treats it as a healthy
// response: the host is up and talking, just asking for room.
type retryAfterError struct {
	status int
	delay  time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("status %d (retry after %v)", e.status, e.delay)
}

// Options configures shared crawler behaviour.
type Options struct {
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
	// MinInterval is the minimum spacing between requests (0 = none).
	MinInterval time.Duration
	// Retries is how many times a failed request is retried. Zero means
	// the default of 2; negative disables retries entirely (mirroring the
	// classifier's MinTokens convention, since "0 retries" is otherwise
	// indistinguishable from "unset").
	Retries int
	// Backoff is the base retry backoff (default 50ms). The delay before
	// retry n is drawn from [base/2, base) with base = Backoff·2^(n-1)
	// capped at MaxBackoff; the jitter is seeded (see Seed) so runs stay
	// reproducible while concurrent retries still decorrelate.
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff (default 5s).
	MaxBackoff time.Duration
	// Seed seeds the backoff jitter RNG. Same seed, same jitter sequence.
	Seed int64
	// RequestTimeout bounds one attempt end to end — dial, headers, and
	// the full body read — so a stalled transfer cannot hang a poll.
	// Zero disables the per-attempt deadline (the caller's context still
	// applies).
	RequestTimeout time.Duration
	// MaxRetryAfter caps how long a server-advertised Retry-After is
	// honored (default 30s), bounding the damage of a hostile or broken
	// header.
	MaxRetryAfter time.Duration
	// BreakerThreshold is how many consecutive failures open the per-host
	// circuit breaker. Zero means the default of 5; negative disables the
	// breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a single half-open probe (default 250ms).
	BreakerCooldown time.Duration
	// BreakerMaxWait bounds how long one attempt blocks waiting for an
	// open breaker before giving up with ErrCircuitOpen (default 15s).
	BreakerMaxWait time.Duration
	// Concurrency bounds how many paste-body or thread fetches one Poll
	// issues in parallel. Values <= 1 mean serial, the default, so
	// existing single-threaded behaviour (and request ordering) is
	// preserved unless a caller opts in. Returned document order is
	// identical at any concurrency: fetches fan out, but results are
	// committed in listing/catalog order.
	Concurrency int
	// Telemetry, when non-nil, is the shared registry the fetcher's
	// doxmeter_fetch_* series are declared on, labeled by TelemetrySite.
	// When nil the fetcher keeps its counters on a private registry: the
	// code path (lock-free atomics) is identical either way, Stats() still
	// works, and nothing is exported.
	Telemetry *telemetry.Registry
	// TelemetrySite labels this fetcher's metric series (the crawler
	// constructors default it to their site name; "" falls back to
	// "unknown").
	TelemetrySite string
}

// ErrInvalidOptions is the sentinel every Options.Validate failure wraps,
// part of the uniform Validate() + withDefaults() contract shared with
// core.StudyConfig and faults.Profile.
var ErrInvalidOptions = errors.New("crawler: invalid Options")

// Validate rejects option values that withDefaults would otherwise turn
// into surprising behaviour mid-crawl. Zero values are always valid (they
// mean "use the default"); only actively contradictory settings fail.
func (o Options) Validate() error {
	bad := func(field string, v any) error {
		return fmt.Errorf("%w: %s = %v", ErrInvalidOptions, field, v)
	}
	if o.MinInterval < 0 {
		return bad("MinInterval", o.MinInterval)
	}
	if o.Backoff < 0 {
		return bad("Backoff", o.Backoff)
	}
	if o.MaxBackoff < 0 {
		return bad("MaxBackoff", o.MaxBackoff)
	}
	if o.MaxBackoff > 0 && o.Backoff > o.MaxBackoff {
		return fmt.Errorf("%w: Backoff %v exceeds MaxBackoff %v", ErrInvalidOptions, o.Backoff, o.MaxBackoff)
	}
	if o.RequestTimeout < 0 {
		return bad("RequestTimeout", o.RequestTimeout)
	}
	if o.MaxRetryAfter < 0 {
		return bad("MaxRetryAfter", o.MaxRetryAfter)
	}
	if o.BreakerCooldown < 0 {
		return bad("BreakerCooldown", o.BreakerCooldown)
	}
	if o.BreakerMaxWait < 0 {
		return bad("BreakerMaxWait", o.BreakerMaxWait)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	switch {
	case o.Retries == 0:
		o.Retries = 2
	case o.Retries < 0:
		o.Retries = 0
	}
	if o.Backoff == 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.MaxRetryAfter <= 0 {
		o.MaxRetryAfter = 30 * time.Second
	}
	switch {
	case o.BreakerThreshold == 0:
		o.BreakerThreshold = 5
	case o.BreakerThreshold < 0:
		o.BreakerThreshold = 0 // disabled
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 250 * time.Millisecond
	}
	if o.BreakerMaxWait <= 0 {
		o.BreakerMaxWait = 15 * time.Second
	}
	return o
}

// FetchStats is a snapshot of a Fetcher's operational counters — the
// signals a deployment watches for retry storms, rate-limit pressure and
// flapping hosts.
type FetchStats struct {
	Requests       int64 // HTTP attempts issued, including failed dials
	Errors         int64 // failed attempts (transport, non-2xx except 404, bad body)
	Retries        int64 // retry iterations taken after a failed attempt
	RateLimited    int64 // 429/503 responses carrying Retry-After
	Truncated      int64 // bodies shorter than their Content-Length
	Corrupt        int64 // 200 payloads that failed structural validation
	Quarantined    int64 // documents skipped after persistent corruption
	BreakerOpens   int64 // closed→open transitions of the circuit breaker
	BreakerGiveUps int64 // attempts abandoned after BreakerMaxWait
}

// Plus returns the field-wise sum of two snapshots.
func (s FetchStats) Plus(o FetchStats) FetchStats {
	s.Requests += o.Requests
	s.Errors += o.Errors
	s.Retries += o.Retries
	s.RateLimited += o.RateLimited
	s.Truncated += o.Truncated
	s.Corrupt += o.Corrupt
	s.Quarantined += o.Quarantined
	s.BreakerOpens += o.BreakerOpens
	s.BreakerGiveUps += o.BreakerGiveUps
	return s
}

// fetchMetrics are the Fetcher's registry-backed instruments. They are the
// single source of truth for its operational counters: Stats(), the exit
// summaries and /metrics all read these same atomics, so they can never
// disagree. Instruments are resolved once at construction; the hot path
// only touches lock-free atomics (cheaper than the mutex the pre-telemetry
// counters took).
type fetchMetrics struct {
	requests, errors, retries, rateLimited *telemetry.Counter
	truncated, corrupt, quarantined        *telemetry.Counter
	breakerOpens, breakerGiveUps           *telemetry.Counter
	backoffSeconds, retryAfterSeconds      *telemetry.Counter
	bytes                                  *telemetry.Counter
	breakerState                           *telemetry.Gauge
	attemptSeconds                         *telemetry.Histogram
}

func newFetchMetrics(reg *telemetry.Registry, site string) *fetchMetrics {
	if reg == nil {
		// Private registry: same instruments, same code path, no export.
		reg = telemetry.NewRegistry()
	}
	if site == "" {
		site = "unknown"
	}
	c := func(name, help string) *telemetry.Counter {
		return reg.NewCounter(name, help, "site").With(site)
	}
	return &fetchMetrics{
		requests:          c("doxmeter_fetch_requests_total", "HTTP attempts issued, including failed dials."),
		errors:            c("doxmeter_fetch_errors_total", "Failed attempts (transport, non-2xx except 404, bad body)."),
		retries:           c("doxmeter_fetch_retries_total", "Retry iterations taken after a failed attempt."),
		rateLimited:       c("doxmeter_fetch_rate_limited_total", "429/503 responses carrying Retry-After."),
		truncated:         c("doxmeter_fetch_truncated_total", "Bodies shorter than their Content-Length."),
		corrupt:           c("doxmeter_fetch_corrupt_total", "200 payloads that failed structural validation."),
		quarantined:       c("doxmeter_fetch_quarantined_total", "Documents skipped after persistent corruption."),
		breakerOpens:      c("doxmeter_fetch_breaker_opens_total", "Closed-to-open transitions of the circuit breaker."),
		breakerGiveUps:    c("doxmeter_fetch_breaker_giveups_total", "Attempts abandoned after BreakerMaxWait."),
		backoffSeconds:    c("doxmeter_fetch_backoff_sleep_seconds_total", "Wall seconds slept in exponential backoff."),
		retryAfterSeconds: c("doxmeter_fetch_retry_after_wait_seconds_total", "Wall seconds slept honoring Retry-After hints."),
		bytes:             c("doxmeter_fetch_bytes_total", "Response body bytes fetched successfully."),
		breakerState: reg.NewGauge("doxmeter_fetch_breaker_state",
			"Circuit breaker state: 0 closed, 1 open.", "site").With(site),
		attemptSeconds: reg.NewHistogram("doxmeter_fetch_attempt_seconds",
			"Latency of individual HTTP attempts in seconds.", nil, "site").With(site),
	}
}

// Fetcher performs rate-limited, retrying, breaker-guarded GETs. One
// Fetcher serves one host (its breaker state is host-wide); it is safe for
// concurrent use.
type Fetcher struct {
	opts    Options
	breaker breaker
	m       *fetchMetrics

	mu      sync.Mutex
	rng     *rand.Rand
	lastReq time.Time
}

// NewFetcher builds a Fetcher with the given options.
func NewFetcher(opts Options) *Fetcher {
	opts = opts.withDefaults()
	return &Fetcher{
		opts: opts,
		rng:  randutil.New(opts.Seed),
		m:    newFetchMetrics(opts.Telemetry, opts.TelemetrySite),
		breaker: breaker{
			threshold: opts.BreakerThreshold,
			cooldown:  opts.BreakerCooldown,
		},
	}
}

// Stats returns a snapshot of the operational counters, read from the same
// registry instruments /metrics exports. Counters are independent atomics,
// so a snapshot taken mid-flight may be skewed by in-progress attempts —
// exactly like scraping /metrics.
func (f *Fetcher) Stats() FetchStats {
	return FetchStats{
		Requests:       int64(f.m.requests.Value()),
		Errors:         int64(f.m.errors.Value()),
		Retries:        int64(f.m.retries.Value()),
		RateLimited:    int64(f.m.rateLimited.Value()),
		Truncated:      int64(f.m.truncated.Value()),
		Corrupt:        int64(f.m.corrupt.Value()),
		Quarantined:    int64(f.m.quarantined.Value()),
		BreakerOpens:   int64(f.m.breakerOpens.Value()),
		BreakerGiveUps: int64(f.m.breakerGiveUps.Value()),
	}
}

// GetFunc is the zero-copy fetch: validate (may be nil) structurally
// checks the body as fetch describes, then consume sees the pooled bytes
// before they are recycled. consume must copy out anything it retains —
// the slice is invalid once GetFunc returns.
func (f *Fetcher) GetFunc(ctx context.Context, url string, validate func([]byte) error, consume func(body []byte)) error {
	return f.fetch(ctx, url, validate, consume)
}

// GetText fetches a URL and returns the body as a string, materialized
// straight from the pooled read buffer (one allocation, no intermediate
// []byte copy).
func (f *Fetcher) GetText(ctx context.Context, url string) (string, error) {
	var out string
	err := f.fetch(ctx, url, nil, func(body []byte) { out = string(body) })
	return out, err
}

// fetch is the retrying core behind GetFunc and GetText. It honors rate
// limits, Retry-After back-pressure and the circuit breaker, retrying
// transient errors with jittered backoff. A 200 body that fails validate
// counts as ErrCorruptPayload and is retried like any other transient
// failure, because live corruption (mid-path mangling, half-written
// upstream caches) usually clears on refetch; if every attempt yields
// garbage the final error wraps ErrCorruptPayload so the caller can
// quarantine. The response body lives in a pooled buffer for the duration
// of one attempt: validate (the structural check, which may
// parse-and-capture) and then consume (the materialization hook) see the
// pooled bytes, which are recycled before fetch returns — neither
// callback may retain the slice. Callers that parse inside validate and
// need no raw bytes pass consume=nil and pay zero copies.
func (f *Fetcher) fetch(ctx context.Context, url string, validate func([]byte) error, consume func([]byte)) error {
	var lastErr error
	for attempt := 0; attempt <= f.opts.Retries; attempt++ {
		if attempt > 0 {
			f.m.retries.Inc()
			delay, fromRetryAfter := f.retryDelay(attempt, lastErr)
			select {
			case <-time.After(delay):
				if fromRetryAfter {
					f.m.retryAfterSeconds.Add(delay.Seconds())
				} else {
					f.m.backoffSeconds.Add(delay.Seconds())
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := f.throttle(ctx); err != nil {
			return err
		}
		if err := f.breaker.acquire(ctx, f.opts.BreakerMaxWait); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			f.m.breakerGiveUps.Inc()
			lastErr = fmt.Errorf("%w after %v", ErrCircuitOpen, f.opts.BreakerMaxWait)
			continue
		}
		bp, err := f.once(ctx, url)
		if f.breaker.record(breakerHealthy(err)) {
			f.m.breakerOpens.Inc()
		}
		f.m.breakerState.Set(breakerStateValue(f.breaker.isOpen()))
		if err == nil && validate != nil {
			if verr := validate(*bp); verr != nil {
				f.m.corrupt.Inc()
				f.m.errors.Inc()
				if !errors.Is(verr, ErrCorruptPayload) {
					verr = fmt.Errorf("%w: %v", ErrCorruptPayload, verr)
				}
				err = verr
			}
		}
		if err == nil {
			if consume != nil {
				consume(*bp)
			}
			putReadBuf(bp)
			return nil
		}
		if bp != nil {
			putReadBuf(bp)
		}
		if errors.Is(err, ErrNotFound) {
			return err
		}
		if ctx.Err() != nil {
			// The caller's context expired mid-attempt; whatever error the
			// transport dressed it in, it is terminal.
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("crawler: %s failed after %d attempts: %w", url, f.opts.Retries+1, lastErr)
}

// breakerHealthy decides whether a response outcome counts for or against
// the circuit breaker. 404 and Retry-After responses prove the host is up;
// transport failures, truncation and bare 5xx count as failures. Payload
// corruption is judged after this point and never reaches the breaker —
// the host answered, its content pipeline is what's broken.
func breakerHealthy(err error) bool {
	if err == nil || errors.Is(err, ErrNotFound) {
		return true
	}
	var ra *retryAfterError
	return errors.As(err, &ra)
}

// retryDelay computes the sleep before retry #attempt: the server's capped
// Retry-After when one was advertised (fromRetryAfter=true), otherwise
// seeded-jitter exponential backoff in [base/2, base).
func (f *Fetcher) retryDelay(attempt int, lastErr error) (delay time.Duration, fromRetryAfter bool) {
	var ra *retryAfterError
	if errors.As(lastErr, &ra) && ra.delay > 0 {
		if ra.delay > f.opts.MaxRetryAfter {
			return f.opts.MaxRetryAfter, true
		}
		return ra.delay, true
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20
	}
	base := f.opts.Backoff << shift
	if base <= 0 || base > f.opts.MaxBackoff {
		base = f.opts.MaxBackoff
	}
	f.mu.Lock()
	jitter := f.rng.Float64()
	f.mu.Unlock()
	return base/2 + time.Duration(jitter*float64(base/2)), false
}

// breakerStateValue maps the breaker's open flag to the gauge encoding.
func breakerStateValue(open bool) float64 {
	if open {
		return 1
	}
	return 0
}

// readBufPool recycles response-body read buffers across fetches. io.ReadAll
// re-grows a fresh buffer through the whole append chain on every call; the
// pooled buffer amortizes that to zero once warm.
var readBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

func putReadBuf(bp *[]byte) {
	*bp = (*bp)[:0]
	readBufPool.Put(bp)
}

// maxBody caps how much of one response body is read; a longer advertised
// Content-Length then surfaces as a truncated body.
const maxBody = 16 << 20

// appendAll is io.ReadAll into a caller-owned buffer, bounded at limit
// bytes: appends r's bytes to buf, growing as needed, and stops without
// reading further once buf holds limit bytes. io.EOF maps to success and
// every other error (including io.ErrUnexpectedEOF) passes through.
func appendAll(r io.Reader, buf []byte, limit int) ([]byte, error) {
	for len(buf) < limit {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := buf[len(buf):min(cap(buf), limit)]
		n, err := r.Read(room)
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				return buf, nil
			}
			return buf, err
		}
	}
	return buf, nil
}

// once runs a single fetch attempt. On success the body is returned in a
// pooled buffer which the caller must release via putReadBuf.
func (f *Fetcher) once(ctx context.Context, url string) (*[]byte, error) {
	if f.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.opts.RequestTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	// Count the attempt before Do so failed dials and timeouts are visible
	// in Requests(); previously only completed round-trips were counted and
	// retry storms against a dead host looked like zero traffic.
	f.m.requests.Inc()
	start := time.Now()
	defer func() { f.m.attemptSeconds.Observe(time.Since(start).Seconds()) }()
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		f.m.errors.Inc()
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		// 404 is an expected outcome (deletion/prune races), not an error.
		return nil, ErrNotFound
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		delay, _ := parseRetryAfter(resp.Header.Get("Retry-After"))
		f.m.errors.Inc()
		f.m.rateLimited.Inc()
		return nil, &retryAfterError{status: resp.StatusCode, delay: delay}
	case resp.StatusCode != http.StatusOK:
		f.m.errors.Inc()
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	// The body read runs under the same per-attempt deadline as the dial,
	// so a stalled transfer ends in a timeout, not a hung poll.
	bp := readBufPool.Get().(*[]byte)
	body, err := appendAll(resp.Body, (*bp)[:0], maxBody)
	*bp = body[:0] // keep the grown capacity pooled whatever happens below
	switch {
	case err != nil && errors.Is(err, io.ErrUnexpectedEOF):
		f.m.errors.Inc()
		f.m.truncated.Inc()
		n := len(body)
		putReadBuf(bp)
		return nil, fmt.Errorf("%w: connection closed after %d of %d bytes", ErrTruncatedBody, n, resp.ContentLength)
	case err != nil:
		f.m.errors.Inc()
		putReadBuf(bp)
		return nil, err
	case resp.ContentLength > 0 && int64(len(body)) < resp.ContentLength:
		f.m.errors.Inc()
		f.m.truncated.Inc()
		n := len(body)
		putReadBuf(bp)
		return nil, fmt.Errorf("%w: got %d of %d bytes", ErrTruncatedBody, n, resp.ContentLength)
	}
	f.m.bytes.Add(float64(len(body)))
	*bp = body
	return bp, nil
}

// parseRetryAfter reads a Retry-After value: delta seconds (leniently
// including fractional seconds, which real servers emit despite RFC 7231's
// integer grammar) or an HTTP-date. Negative and unparseable values report
// ok=false with a zero delay.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		// NaN fails both comparisons and huge values (1e99, +Inf) would
		// overflow the Duration conversion to negative — treat anything
		// outside a sane range as unusable.
		const maxSecs = float64(1<<62) / float64(time.Second)
		if !(secs >= 0) {
			return 0, false
		}
		if secs > maxSecs {
			secs = maxSecs
		}
		return time.Duration(secs * float64(time.Second)), true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t)
		if d < 0 {
			return 0, false
		}
		return d, true
	}
	return 0, false
}

// throttle enforces the minimum request interval.
func (f *Fetcher) throttle(ctx context.Context) error {
	if f.opts.MinInterval <= 0 {
		return nil
	}
	f.mu.Lock()
	now := time.Now()
	next := f.lastReq.Add(f.opts.MinInterval)
	if next.Before(now) {
		next = now
	}
	f.lastReq = next // reserve the slot
	wait := next.Sub(now)
	f.mu.Unlock()
	if wait <= 0 {
		return nil
	}
	select {
	case <-time.After(wait):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// breaker is a consecutive-failure circuit breaker with half-open probing.
// Open, it admits one probe per cooldown; a healthy probe closes it, a
// failed probe restarts the cooldown. acquire blocks (bounded) rather than
// failing fast: the crawl's priority is completeness, so callers wait for
// the host to come back and only abandon an attempt after BreakerMaxWait.
//
// While the breaker is closed with no failure counted (not dirty),
// acquire, isOpen and a healthy record read one atomic flag and take no
// lock: that is every request of a healthy crawl, from every fetch worker.
// Anything else takes mu, and every locked update republishes dirty, so a
// fast-path caller that raced a failure is ordered before it.
type breaker struct {
	threshold int // <= 0 disables
	cooldown  time.Duration

	dirty atomic.Bool // open || consecutive > 0 || probing; written under mu

	mu          sync.Mutex
	consecutive int
	open        bool
	probing     bool
	openedAt    time.Time
}

// publish recomputes the dirty flag; call with mu held after any update.
func (b *breaker) publish() {
	b.dirty.Store(b.open || b.consecutive > 0 || b.probing)
}

// acquire blocks until the breaker admits a request: immediately when
// closed, as the single half-open probe once the cooldown elapses, or not
// at all — ErrCircuitOpen — after maxWait.
func (b *breaker) acquire(ctx context.Context, maxWait time.Duration) error {
	if b.threshold <= 0 || !b.dirty.Load() {
		return nil
	}
	deadline := time.Now().Add(maxWait)
	for {
		b.mu.Lock()
		if !b.open {
			b.mu.Unlock()
			return nil
		}
		if !b.probing && time.Since(b.openedAt) >= b.cooldown {
			b.probing = true // this caller carries the half-open probe
			b.mu.Unlock()
			return nil
		}
		b.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return ErrCircuitOpen
		}
		wait := b.cooldown / 4
		if wait > remaining {
			wait = remaining
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// isOpen reports the breaker's current state (for the state gauge).
func (b *breaker) isOpen() bool {
	if b.threshold <= 0 || !b.dirty.Load() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// record feeds an outcome back and reports whether this outcome opened the
// breaker (a closed→open transition, for stats).
func (b *breaker) record(healthy bool) bool {
	if b.threshold <= 0 || (healthy && !b.dirty.Load()) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.publish()
	if healthy {
		b.consecutive = 0
		b.open = false
		b.probing = false
		return false
	}
	b.consecutive++
	if b.open {
		// Failed probe (or a straggler failing while open): restart the
		// cooldown, keep the breaker open.
		b.openedAt = time.Now()
		b.probing = false
		return false
	}
	if b.consecutive >= b.threshold {
		b.open = true
		b.probing = false
		b.openedAt = time.Now()
		return true
	}
	return false
}

// Parse helpers. These are the only paths from raw bytes to structured
// crawl data, shared by Poll and the fuzz targets; every parse failure
// wraps ErrCorruptPayload so fetch-level validation and quarantine logic
// key off one sentinel.
//
// They decode into caller-owned storage so the pollers can reuse one decode
// target across pages and threads (json.Unmarshal reuses a slice's backing
// array when the capacity suffices). json.Unmarshal leaves any field the
// new JSON omits as it was, so every reused element is zeroed first: a
// 4chan post without "com" must not keep the previous thread's text.

func parseListingInto(raw []byte, dst []pasteMeta) ([]pasteMeta, error) {
	clear(dst[:cap(dst)])
	dst = dst[:0]
	if err := json.Unmarshal(raw, &dst); err != nil {
		return dst[:0], fmt.Errorf("bad listing: %w (%v)", ErrCorruptPayload, err)
	}
	return dst, nil
}

func parseCatalogInto(raw []byte, dst []catalogPage) ([]catalogPage, error) {
	dst = dst[:cap(dst)]
	for i := range dst {
		// Keep each page's thread array; it is cleared like the pages.
		threads := dst[i].Threads
		clear(threads[:cap(threads)])
		dst[i] = catalogPage{Threads: threads[:0]}
	}
	dst = dst[:0]
	if err := json.Unmarshal(raw, &dst); err != nil {
		return dst[:0], fmt.Errorf("bad catalog: %w (%v)", ErrCorruptPayload, err)
	}
	return dst, nil
}

func parseThreadInto(raw []byte, tj *threadJSON) error {
	clear(tj.Posts[:cap(tj.Posts)])
	tj.Posts = tj.Posts[:0]
	if err := json.Unmarshal(raw, tj); err != nil {
		tj.Posts = tj.Posts[:0]
		return fmt.Errorf("bad thread: %w (%v)", ErrCorruptPayload, err)
	}
	return nil
}

// Pastebin incrementally crawls a pastebin-style scraping API.
type Pastebin struct {
	BaseURL  string
	SiteName string
	PageSize int

	f      *Fetcher
	mu     sync.Mutex
	cursor int64
	seen   map[string]bool

	// Poll-local scratch (Poll is serial per crawler — the cursor protocol
	// already assumes that): reused listing decode target and URL buffer.
	pageScratch []pasteMeta
	urlScratch  []byte

	// Delta-checkpoint journal: paste keys committed since the last cut,
	// kept only while journaling is enabled. The seen set is add-only, so
	// new keys plus the cursor fully describe one cut's worth of change.
	journalOn     bool
	jSeen         []string
	lastCutCursor int64
}

// NewPastebin builds the crawler; baseURL has no trailing slash.
func NewPastebin(baseURL string, opts Options) *Pastebin {
	if opts.TelemetrySite == "" {
		opts.TelemetrySite = "pastebin"
	}
	return &Pastebin{
		BaseURL:  baseURL,
		SiteName: "pastebin",
		PageSize: 250,
		f:        NewFetcher(opts),
		seen:     make(map[string]bool),
	}
}

type pasteMeta struct {
	Key   string `json:"key"`
	Title string `json:"title"`
	Date  int64  `json:"date"`
}

// Poll sweeps the listing from the current cursor, fetching every new paste
// body. Pastes that vanish between listing and fetch (deletions) are
// skipped, matching a live crawler's race.
//
// Crash/error consistency: seen/cursor state is committed per paste only
// after its body fetch definitively resolved (success, or a 404 meaning the
// paste is gone) and the document has been appended to the result.
// On a transient failure Poll returns the documents collected so far — all
// of which are committed — together with the error; the failed paste and
// everything after it in the listing stay uncommitted, so the next Poll
// re-lists and re-fetches them instead of silently skipping them forever.
// A corrupt listing likewise fails the poll without advancing the cursor.
//
// With Options.Concurrency > 1 the body fetches of one page fan out in
// parallel, but commits happen in listing order on the calling goroutine,
// so the returned documents are identical to a serial poll.
func (c *Pastebin) Poll(ctx context.Context) ([]Doc, error) {
	var out []Doc
	itemPrefix := c.BaseURL + "/api_scrape_item.php?i="
	for {
		c.mu.Lock()
		cursor := c.cursor
		c.mu.Unlock()
		u := append(c.urlScratch[:0], c.BaseURL...)
		u = append(u, "/api_scraping.php?since="...)
		u = strconv.AppendInt(u, cursor, 10)
		u = append(u, "&limit="...)
		u = strconv.AppendInt(u, int64(c.PageSize), 10)
		c.urlScratch = u
		// The validate callback parses into the reused decode target, so the
		// listing is decoded exactly once and the raw bytes never leave the
		// fetcher's pooled buffer.
		page := c.pageScratch
		err := c.f.fetch(ctx, string(u), func(raw []byte) error {
			var perr error
			page, perr = parseListingInto(raw, page)
			return perr
		}, nil)
		c.pageScratch = page
		if err != nil {
			return out, fmt.Errorf("crawler: %w", err)
		}
		if len(page) == 0 {
			return out, nil
		}

		// Pick out the pastes not yet committed (read-only check; nothing
		// is marked seen until its body is in hand).
		fetchIdx := make([]int, 0, len(page))
		c.mu.Lock()
		for i, m := range page {
			if !c.seen[m.Key] {
				fetchIdx = append(fetchIdx, i)
			}
		}
		c.mu.Unlock()

		type fetchResult struct {
			body    string
			err     error
			fetched bool
		}
		results := make([]fetchResult, len(page))
		parallel.ForEach(len(fetchIdx), c.f.opts.Concurrency, func(j int) {
			i := fetchIdx[j]
			// Paste bodies are raw text: no structural validation is
			// possible (any bytes are a legal paste).
			body, err := c.f.GetText(ctx, itemPrefix+page[i].Key)
			results[i] = fetchResult{body: body, err: err, fetched: true}
		})

		// Commit in listing order. The cursor only ever advances across the
		// prefix of handled pastes: hitting a transient failure abandons the
		// rest of the page (successfully fetched or not) uncommitted.
		progressed := false
		for i, m := range page {
			res := results[i]
			if res.fetched {
				if res.err != nil && !errors.Is(res.err, ErrNotFound) {
					return out, res.err
				}
				if res.err == nil {
					out = append(out, Doc{
						Site: c.SiteName, ID: m.Key, Title: m.Title,
						Body: res.body, Posted: time.Unix(m.Date, 0).UTC(),
					})
				}
				// A 404 means the paste was deleted between listing and
				// fetch — definitively handled, so it commits too.
				progressed = true
			}
			c.mu.Lock()
			if res.fetched && !c.seen[m.Key] {
				c.seen[m.Key] = true
				if c.journalOn {
					c.jSeen = append(c.jSeen, m.Key)
				}
			}
			if m.Date > c.cursor {
				c.cursor = m.Date
			}
			c.mu.Unlock()
		}
		// A page of only boundary-second duplicates means the stream is
		// exhausted; avoid spinning.
		if !progressed {
			return out, nil
		}
	}
}

// Stats exposes the underlying fetcher's full counter snapshot.
func (c *Pastebin) Stats() FetchStats { return c.f.Stats() }

// PastebinState is the Pastebin crawler's versioned snapshot payload:
// the listing cursor and the committed seen set. Paste keys are opaque
// site-assigned IDs, so the state is persistence-safe.
type PastebinState struct {
	Cursor int64    `json:"cursor"`
	Seen   []string `json:"seen"` // sorted
}

// Snapshot captures the crawler's commit state for checkpointing.
func (c *Pastebin) Snapshot() PastebinState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := PastebinState{Cursor: c.cursor, Seen: make([]string, 0, len(c.seen))}
	for k := range c.seen {
		st.Seen = append(st.Seen, k)
	}
	sort.Strings(st.Seen)
	return st
}

// Restore replaces the crawler's commit state with a snapshot. The next
// Poll resumes from the restored cursor exactly as if the process had
// never died; any documents listed-but-uncommitted at snapshot time are
// re-fetched, preserving the no-skipped-documents invariant.
func (c *Pastebin) Restore(st PastebinState) {
	seen := make(map[string]bool, len(st.Seen))
	for _, k := range st.Seen {
		seen[k] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cursor = st.Cursor
	c.seen = seen
	c.jSeen = nil
	c.lastCutCursor = st.Cursor
}

// PastebinDelta is the Pastebin crawler's incremental checkpoint
// payload: the cursor wholesale plus the paste keys committed since the
// previous cut. Applying it to the previous cut's PastebinState
// reproduces the next PastebinState exactly.
type PastebinDelta struct {
	Cursor int64    `json:"cursor"`
	Added  []string `json:"added,omitempty"` // sorted
}

// SetDeltaJournal switches mutation journaling on for delta checkpoints,
// starting an empty journal. Journaling stays off otherwise, and the
// non-durable path pays nothing per commit.
func (c *Pastebin) SetDeltaJournal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journalOn = true
	c.jSeen = nil
	c.lastCutCursor = c.cursor
}

// CutDelta drains the journal into a delta covering every mutation since
// the previous cut, and reports whether anything changed. Full-snapshot
// cuts call it too (discarding the result) so the next delta's base is
// the snapshot just written.
func (c *Pastebin) CutDelta() (PastebinDelta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dirty := len(c.jSeen) > 0 || c.cursor != c.lastCutCursor
	d := PastebinDelta{Cursor: c.cursor}
	if len(c.jSeen) > 0 {
		d.Added = make([]string, len(c.jSeen))
		copy(d.Added, c.jSeen)
		sort.Strings(d.Added)
	}
	c.jSeen = nil
	c.lastCutCursor = c.cursor
	return d, dirty
}

// Apply folds a delta into a prior PastebinState in place, producing the
// state the delta was cut from, byte-identical under JSON marshaling to
// a Snapshot taken at the cut (both keep Seen sorted).
func (d PastebinDelta) Apply(st *PastebinState) error {
	st.Cursor = d.Cursor
	st.Seen = mergeSortedStrings(st.Seen, d.Added)
	return nil
}

// mergeSortedStrings merges two sorted, mutually disjoint string slices
// into one sorted slice, preserving the non-nil-ness of a (an empty
// committed state marshals as [], not null).
func mergeSortedStrings(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// mergeSortedInt64 is mergeSortedStrings for post numbers.
func mergeSortedInt64(a, b []int64) []int64 {
	if len(b) == 0 {
		return a
	}
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Board incrementally crawls one board of a chan-style JSON API.
type Board struct {
	BaseURL  string
	Board    string
	SiteName string

	f        *Fetcher
	mu       sync.Mutex
	lastMod  map[int64]int64 // thread no -> last_modified handled
	seenPost map[int64]bool

	// Poll-local scratch (Poll is serial per crawler): reused catalog decode
	// target, candidate list and doc-ID build buffer.
	catScratch  []catalogPage
	candScratch []boardCandidate
	idScratch   []byte

	// Delta-checkpoint journal: threads whose watermark moved and posts
	// committed since the last cut. seenPost is add-only and lastMod
	// entries are never removed, so these two sets fully describe one
	// cut's worth of change.
	journalOn bool
	jThreads  map[int64]bool
	jPosts    []int64
}

// NewBoard builds a board crawler. siteName labels collected docs (e.g.
// "4chan/b").
func NewBoard(baseURL, board, siteName string, opts Options) *Board {
	if opts.TelemetrySite == "" {
		opts.TelemetrySite = siteName
	}
	return &Board{
		BaseURL:  baseURL,
		Board:    board,
		SiteName: siteName,
		f:        NewFetcher(opts),
		lastMod:  make(map[int64]int64),
		seenPost: make(map[int64]bool),
	}
}

type catalogPage struct {
	Page    int `json:"page"`
	Threads []struct {
		No           int64 `json:"no"`
		LastModified int64 `json:"last_modified"`
	} `json:"threads"`
}

type threadJSON struct {
	Posts []struct {
		No   int64  `json:"no"`
		Time int64  `json:"time"`
		Com  string `json:"com"`
	} `json:"posts"`
}

type boardCandidate struct {
	no, lastMod int64
}

// threadPool recycles thread decode targets across the parallel thread
// fetches; json.Unmarshal reuses the pooled Posts backing array, so a warm
// poll allocates only the post strings that actually escape into Docs.
var threadPool = sync.Pool{New: func() any { return new(threadJSON) }}

// Poll fetches the catalog and re-reads every thread with new activity,
// returning posts not seen before.
//
// Like Pastebin.Poll, per-thread seenPost/lastMod state commits only after
// the thread JSON arrived and its new posts were appended to the result —
// a transient mid-poll failure leaves the failed thread (and every thread
// after it in catalog order) uncommitted for the next Poll to retry, and
// the documents returned alongside the error are all committed. A thread
// whose JSON stays corrupt through every retry is quarantined: counted in
// Stats().Quarantined and skipped for this poll without committing its
// lastMod, so the next poll tries it again — the cursor never advances
// past an unfetched document. With Options.Concurrency > 1, thread fetches
// fan out in parallel while commits stay in catalog order.
func (c *Board) Poll(ctx context.Context) ([]Doc, error) {
	// The validate callback parses into the reused decode target, so the
	// catalog is decoded exactly once straight from the pooled read buffer.
	pages := c.catScratch
	err := c.f.fetch(ctx, c.BaseURL+"/"+c.Board+"/catalog.json", func(raw []byte) error {
		var perr error
		pages, perr = parseCatalogInto(raw, pages)
		return perr
	}, nil)
	c.catScratch = pages
	if err != nil {
		return nil, fmt.Errorf("crawler: %w", err)
	}
	// Threads with new activity, in catalog order.
	cands := c.candScratch[:0]
	c.mu.Lock()
	for _, page := range pages {
		for _, th := range page.Threads {
			if th.LastModified > c.lastMod[th.No] {
				cands = append(cands, boardCandidate{no: th.No, lastMod: th.LastModified})
			}
		}
	}
	c.mu.Unlock()
	c.candScratch = cands

	type fetchResult struct {
		tj  *threadJSON
		err error
	}
	threadPrefix := c.BaseURL + "/" + c.Board + "/thread/"
	results := make([]fetchResult, len(cands))
	parallel.ForEach(len(cands), c.f.opts.Concurrency, func(i int) {
		tj := threadPool.Get().(*threadJSON)
		err := c.fetchThread(ctx, threadPrefix, cands[i].no, tj)
		if err != nil {
			threadPool.Put(tj)
			results[i].err = err
			return
		}
		results[i].tj = tj
	})

	var out []Doc
	idPrefixLen := len(c.Board) + 1
	c.idScratch = append(append(c.idScratch[:0], c.Board...), '-')
	for i, cd := range cands {
		res := results[i]
		switch {
		case errors.Is(res.err, ErrNotFound):
			continue // thread pruned between catalog and fetch
		case errors.Is(res.err, ErrCorruptPayload):
			// Persistent corruption: quarantine the thread — count it,
			// skip it, leave lastMod uncommitted for the next poll.
			c.f.m.quarantined.Inc()
			continue
		case res.err != nil:
			return out, res.err
		}
		c.mu.Lock()
		for _, p := range res.tj.Posts {
			if c.seenPost[p.No] {
				continue
			}
			c.seenPost[p.No] = true
			if c.journalOn {
				c.jPosts = append(c.jPosts, p.No)
			}
			c.idScratch = strconv.AppendInt(c.idScratch[:idPrefixLen], p.No, 10)
			out = append(out, Doc{
				Site: c.SiteName, ID: string(c.idScratch),
				Body: p.Com, HTML: true, Posted: time.Unix(p.Time, 0).UTC(),
			})
		}
		c.lastMod[cd.no] = cd.lastMod
		if c.journalOn {
			c.jThreads[cd.no] = true
		}
		c.mu.Unlock()
		threadPool.Put(res.tj)
	}
	return out, nil
}

// fetchThread retrieves one thread's JSON into the pooled decode target
// without touching any crawler state; Poll commits the outcome. The parse
// happens inside the fetch's validate hook, straight off the pooled read
// buffer, so corrupt payloads still count and retry exactly as before.
func (c *Board) fetchThread(ctx context.Context, threadPrefix string, no int64, tj *threadJSON) error {
	var nb [24]byte
	u := threadPrefix + string(strconv.AppendInt(nb[:0], no, 10)) + ".json"
	return c.f.fetch(ctx, u, func(raw []byte) error { return parseThreadInto(raw, tj) }, nil)
}

// Stats exposes the underlying fetcher's full counter snapshot.
func (c *Board) Stats() FetchStats { return c.f.Stats() }

// BoardState is the Board crawler's versioned snapshot payload: per-
// thread last-modified watermarks and the committed post set. Thread and
// post numbers are site-assigned integers, so the state is
// persistence-safe.
type BoardState struct {
	LastMod   map[int64]int64 `json:"last_mod"`
	SeenPosts []int64         `json:"seen_posts"` // sorted
}

// Snapshot captures the crawler's commit state for checkpointing.
func (c *Board) Snapshot() BoardState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := BoardState{
		LastMod:   make(map[int64]int64, len(c.lastMod)),
		SeenPosts: make([]int64, 0, len(c.seenPost)),
	}
	for no, lm := range c.lastMod {
		st.LastMod[no] = lm
	}
	for no := range c.seenPost {
		st.SeenPosts = append(st.SeenPosts, no)
	}
	sort.Slice(st.SeenPosts, func(i, j int) bool { return st.SeenPosts[i] < st.SeenPosts[j] })
	return st
}

// Restore replaces the crawler's commit state with a snapshot. Threads
// whose lastMod was uncommitted at snapshot time are re-read on the next
// Poll; already-seen posts within them are filtered by seenPost, so the
// resumed document stream is identical to an uninterrupted one.
func (c *Board) Restore(st BoardState) {
	lastMod := make(map[int64]int64, len(st.LastMod))
	for no, lm := range st.LastMod {
		lastMod[no] = lm
	}
	seenPost := make(map[int64]bool, len(st.SeenPosts))
	for _, no := range st.SeenPosts {
		seenPost[no] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastMod = lastMod
	c.seenPost = seenPost
	if c.journalOn {
		c.jThreads = make(map[int64]bool)
	}
	c.jPosts = nil
}

// BoardDelta is the Board crawler's incremental checkpoint payload: the
// watermarks of threads touched since the previous cut and the posts
// committed since it. Applying it to the previous cut's BoardState
// reproduces the next BoardState exactly.
type BoardDelta struct {
	LastMod    map[int64]int64 `json:"last_mod,omitempty"`
	AddedPosts []int64         `json:"added_posts,omitempty"` // sorted
}

// SetDeltaJournal switches mutation journaling on for delta checkpoints,
// starting an empty journal. Journaling stays off otherwise, and the
// non-durable path pays nothing per commit.
func (c *Board) SetDeltaJournal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journalOn = true
	c.jThreads = make(map[int64]bool)
	c.jPosts = nil
}

// CutDelta drains the journal into a delta covering every mutation since
// the previous cut, and reports whether anything changed. Full-snapshot
// cuts call it too (discarding the result) so the next delta's base is
// the snapshot just written.
func (c *Board) CutDelta() (BoardDelta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dirty := len(c.jThreads) > 0 || len(c.jPosts) > 0
	var d BoardDelta
	if len(c.jThreads) > 0 {
		d.LastMod = make(map[int64]int64, len(c.jThreads))
		for no := range c.jThreads {
			d.LastMod[no] = c.lastMod[no]
		}
		c.jThreads = make(map[int64]bool)
	}
	if len(c.jPosts) > 0 {
		d.AddedPosts = make([]int64, len(c.jPosts))
		copy(d.AddedPosts, c.jPosts)
		sort.Slice(d.AddedPosts, func(i, j int) bool { return d.AddedPosts[i] < d.AddedPosts[j] })
		c.jPosts = nil
	}
	return d, dirty
}

// Apply folds a delta into a prior BoardState in place, producing the
// state the delta was cut from, byte-identical under JSON marshaling to
// a Snapshot taken at the cut (JSON object keys marshal sorted; both
// keep SeenPosts sorted).
func (d BoardDelta) Apply(st *BoardState) error {
	if st.LastMod == nil && len(d.LastMod) > 0 {
		st.LastMod = make(map[int64]int64, len(d.LastMod))
	}
	for no, lm := range d.LastMod {
		st.LastMod[no] = lm
	}
	st.SeenPosts = mergeSortedInt64(st.SeenPosts, d.AddedPosts)
	return nil
}
