// Package faults is a seeded, deterministic fault-injection layer for the
// simulated sites. An Injector wraps any of the services' http.Handlers
// (internal/sites, internal/osn) and replaces a configurable fraction of
// responses with the failure modes a thirteen-week live crawl actually
// meets: 500/503 errors, 429 rate limiting with Retry-After, abrupt
// connection resets, stalled and truncated bodies, corrupted payloads, and
// scheduled outage windows on the study's virtual clock.
//
// Determinism is the point: whether a given request is faulted, and how, is
// a pure function of (profile seed, request URL, per-URL attempt number) —
// never of wall-clock time, goroutine scheduling, or request interleaving.
// Replaying the same crawl against the same profile fires the same faults,
// at any pipeline parallelism, which is what lets the chaos suite assert
// that a faulted study commits bit-identical results to a fault-free one.
//
// A profile "heals": after MaxFaultsPerURL faulted responses for one URL,
// further requests for it pass through untouched (outage windows instead
// heal when the virtual clock leaves the window). Any healing profile whose
// per-URL fault budget is below the crawler's retry budget is therefore
// survivable without data loss, and the chaos tests prove it.
package faults

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"doxmeter/internal/simclock"
	"doxmeter/internal/telemetry"
)

// Mode identifies one failure mode.
type Mode string

// The failure modes an Injector can substitute for a real response.
const (
	ModeNone     Mode = "none"      // pass through to the wrapped handler
	Mode500      Mode = "status500" // HTTP 500 Internal Server Error
	Mode503      Mode = "status503" // HTTP 503 Service Unavailable
	Mode429      Mode = "ratelimit" // HTTP 429 with a Retry-After header
	ModeReset    Mode = "reset"     // abrupt connection close (TCP RST)
	ModeStall    Mode = "stall"     // partial body, a wall-clock hang, then abort
	ModeTruncate Mode = "truncate"  // full Content-Length, partial body, abort
	ModeCorrupt  Mode = "corrupt"   // HTTP 200 with a garbage payload
	ModeOutage   Mode = "outage"    // scheduled outage window (503)
)

// Outage is a scheduled downtime window [Start, End) on the virtual clock.
type Outage struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the window.
func (o Outage) Contains(t time.Time) bool {
	return !t.Before(o.Start) && t.Before(o.End)
}

// Profile configures which faults fire and how often. Probabilities are
// evaluated per request in field order (P500, P503, P429, PReset, PStall,
// PTruncate, PCorrupt) against a single deterministic roll, so their sum
// must not exceed 1.
type Profile struct {
	// Seed drives every injection decision. Two injectors with equal
	// profiles fire identical fault sequences for identical request
	// sequences.
	Seed int64

	P500, P503, P429    float64
	PReset, PStall      float64
	PTruncate, PCorrupt float64

	// RetryAfter is the delay advertised on injected 429 responses.
	// Sub-second values are formatted as decimal seconds.
	RetryAfter time.Duration
	// StallFor is how long (wall clock) a stalled body hangs after its
	// partial write before the connection is aborted. Default 100ms.
	StallFor time.Duration
	// TruncateFrac is the fraction of the true body delivered by stall
	// and truncate faults. Default 0.5.
	TruncateFrac float64
	// MaxFaultsPerURL is the per-URL healing budget: after this many
	// faulted responses for one URL, requests for it pass through.
	// Zero means the default of 2; negative means never heal.
	MaxFaultsPerURL int
	// Outages are scheduled downtime windows on the virtual clock during
	// which every request is rejected with a 503, regardless of the
	// probability knobs or the healing budget.
	Outages []Outage
}

// defaultMaxFaults is the healing budget when MaxFaultsPerURL is zero.
const defaultMaxFaults = 2

// ErrInvalidProfile is the sentinel every Profile.Validate failure wraps,
// part of the uniform Validate() + withDefaults() contract shared with
// core.StudyConfig and crawler.Options.
var ErrInvalidProfile = errors.New("faults: invalid Profile")

// Validate rejects contradictory profiles before a run starts: out-of-
// range probabilities, a probability mass above 1 (the modes share one
// roll), negative delays, a truncation fraction that would deliver the
// whole body, or an inverted outage window. Zero values are always valid
// (they mean "use the default").
func (p Profile) Validate() error {
	sum := 0.0
	for _, c := range []struct {
		name string
		p    float64
	}{
		{"P500", p.P500}, {"P503", p.P503}, {"P429", p.P429},
		{"PReset", p.PReset}, {"PStall", p.PStall},
		{"PTruncate", p.PTruncate}, {"PCorrupt", p.PCorrupt},
	} {
		if c.p < 0 || c.p > 1 {
			return fmt.Errorf("%w: %s = %v, want [0, 1]", ErrInvalidProfile, c.name, c.p)
		}
		sum += c.p
	}
	if sum > 1 {
		return fmt.Errorf("%w: probabilities sum to %v, want <= 1 (modes share one roll)", ErrInvalidProfile, sum)
	}
	if p.RetryAfter < 0 {
		return fmt.Errorf("%w: RetryAfter = %v", ErrInvalidProfile, p.RetryAfter)
	}
	if p.StallFor < 0 {
		return fmt.Errorf("%w: StallFor = %v", ErrInvalidProfile, p.StallFor)
	}
	if p.TruncateFrac < 0 || p.TruncateFrac >= 1 {
		if p.TruncateFrac != 0 {
			return fmt.Errorf("%w: TruncateFrac = %v, want [0, 1)", ErrInvalidProfile, p.TruncateFrac)
		}
	}
	for i, o := range p.Outages {
		if !o.End.After(o.Start) {
			return fmt.Errorf("%w: Outages[%d] window [%v, %v) is empty or inverted", ErrInvalidProfile, i, o.Start, o.End)
		}
	}
	return nil
}

// withDefaults resolves the zero-means-default fields to their effective
// values. The per-field accessors (maxFaults, stallFor, truncateFrac)
// remain the source of truth; this materializes them so a defaulted
// profile can be inspected or compared directly.
func (p Profile) withDefaults() Profile {
	p.MaxFaultsPerURL = p.maxFaults()
	p.StallFor = p.stallFor()
	p.TruncateFrac = p.truncateFrac()
	return p
}

func (p Profile) maxFaults() int {
	switch {
	case p.MaxFaultsPerURL == 0:
		return defaultMaxFaults
	case p.MaxFaultsPerURL < 0:
		return -1
	}
	return p.MaxFaultsPerURL
}

func (p Profile) stallFor() time.Duration {
	if p.StallFor <= 0 {
		return 100 * time.Millisecond
	}
	return p.StallFor
}

func (p Profile) truncateFrac() float64 {
	if p.TruncateFrac <= 0 || p.TruncateFrac >= 1 {
		return 0.5
	}
	return p.TruncateFrac
}

// ForService derives a copy of the profile with a service-specific seed, so
// the pastebin, board and OSN injectors fire independent fault streams from
// one study-level profile.
func (p Profile) ForService(name string) Profile {
	q := p
	q.Seed = p.Seed ^ int64(hashString(name))
	return q
}

// InOutage reports whether t falls inside any scheduled outage window.
func (p Profile) InOutage(t time.Time) bool {
	for _, o := range p.Outages {
		if o.Contains(t) {
			return true
		}
	}
	return false
}

// Decide returns the fault mode for the attempt-th request (0-based) of the
// given URL key. It is a pure function of (Seed, key, attempt): request
// interleaving, parallelism and wall-clock time never change the outcome.
// Outage windows are not Decide's business — the Injector checks those
// against the virtual clock first.
func (p Profile) Decide(key string, attempt int) Mode {
	if max := p.maxFaults(); max >= 0 && attempt >= max {
		return ModeNone
	}
	u := p.roll(key, attempt)
	for _, c := range []struct {
		m Mode
		p float64
	}{
		{Mode500, p.P500},
		{Mode503, p.P503},
		{Mode429, p.P429},
		{ModeReset, p.PReset},
		{ModeStall, p.PStall},
		{ModeTruncate, p.PTruncate},
		{ModeCorrupt, p.PCorrupt},
	} {
		if c.p <= 0 {
			continue
		}
		u -= c.p
		if u < 0 {
			return c.m
		}
	}
	return ModeNone
}

// roll maps (Seed, key, attempt) to a uniform float in [0, 1) via FNV-1a.
func (p Profile) roll(key string, attempt int) float64 {
	h := hashString(key)
	h = hashUint64(h, uint64(p.Seed))
	h = hashUint64(h, uint64(attempt))
	return float64(h>>11) / float64(uint64(1)<<53)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(s string) uint64 {
	var h uint64 = fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// Preset returns a named fault profile, or nil for "off". The seed keeps
// the profile deterministic; outage windows in the "outage" preset are
// pinned to the paper's collection periods.
func Preset(name string, seed int64) (*Profile, error) {
	switch name {
	case "", "off":
		return nil, nil
	case "mild":
		return &Profile{
			Seed: seed,
			P500: 0.02, P503: 0.01, P429: 0.02, PReset: 0.01,
			PStall: 0.005, PTruncate: 0.01, PCorrupt: 0.01,
			RetryAfter:      time.Second,
			StallFor:        250 * time.Millisecond,
			MaxFaultsPerURL: 2,
		}, nil
	case "heavy":
		return &Profile{
			Seed: seed,
			P500: 0.08, P503: 0.04, P429: 0.05, PReset: 0.04,
			PStall: 0.02, PTruncate: 0.04, PCorrupt: 0.04,
			RetryAfter:      time.Second,
			StallFor:        500 * time.Millisecond,
			MaxFaultsPerURL: 4,
		}, nil
	case "outage":
		p, _ := Preset("mild", seed)
		p.Outages = []Outage{
			{Start: simclock.Period1.Start.Add(10 * simclock.Day), End: simclock.Period1.Start.Add(12 * simclock.Day)},
			{Start: simclock.Period2.Start.Add(15 * simclock.Day), End: simclock.Period2.Start.Add(17 * simclock.Day)},
		}
		return p, nil
	default:
		return nil, fmt.Errorf("faults: unknown profile %q (want off, mild, heavy or outage)", name)
	}
}

// Counters tallies what an Injector actually did.
type Counters struct {
	Requests int64 // every request seen
	Passed   int64 // requests served by the wrapped handler untouched

	Status500, Status503 int64
	RateLimited          int64 // injected 429s
	Resets               int64
	Stalls               int64
	Truncated            int64
	Corrupted            int64
	OutageRejected       int64
}

// Injected returns the total number of faulted responses.
func (c Counters) Injected() int64 {
	return c.Status500 + c.Status503 + c.RateLimited + c.Resets +
		c.Stalls + c.Truncated + c.Corrupted + c.OutageRejected
}

// Plus returns the field-wise sum of two counter sets.
func (c Counters) Plus(o Counters) Counters {
	c.Requests += o.Requests
	c.Passed += o.Passed
	c.Status500 += o.Status500
	c.Status503 += o.Status503
	c.RateLimited += o.RateLimited
	c.Resets += o.Resets
	c.Stalls += o.Stalls
	c.Truncated += o.Truncated
	c.Corrupted += o.Corrupted
	c.OutageRejected += o.OutageRejected
	return c
}

// allModes lists every injectable mode, for metric series pre-declaration.
var allModes = []Mode{Mode500, Mode503, Mode429, ModeReset, ModeStall, ModeTruncate, ModeCorrupt, ModeOutage}

// faultMetrics holds the injector's tallies as telemetry counters. The
// injector always counts through these — when not Instrument()ed onto a
// shared registry they live on a private one, so the code path (lock-free
// atomics) is identical and Counters() snapshots read the same values
// /metrics would export.
type faultMetrics struct {
	requests *telemetry.Counter
	passed   *telemetry.Counter
	injected map[Mode]*telemetry.Counter
}

func newFaultMetrics(reg *telemetry.Registry, service string) *faultMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if service == "" {
		service = "unknown"
	}
	inj := reg.NewCounter("doxmeter_fault_injected_total",
		"Faulted responses substituted by the injector, by failure mode.",
		"service", "mode")
	m := &faultMetrics{
		requests: reg.NewCounter("doxmeter_fault_requests_total",
			"Requests seen by the fault injector.", "service").With(service),
		passed: reg.NewCounter("doxmeter_fault_passed_total",
			"Requests served by the wrapped handler untouched.", "service").With(service),
		injected: make(map[Mode]*telemetry.Counter, len(allModes)),
	}
	for _, mode := range allModes {
		m.injected[mode] = inj.With(service, string(mode))
	}
	return m
}

// Injector wraps an http.Handler with deterministic fault injection. Safe
// for concurrent use.
type Injector struct {
	p     Profile
	clock *simclock.Clock // nil disables outage windows
	inner http.Handler

	mu       sync.Mutex
	attempts map[string]int
	m        *faultMetrics
}

// NewInjector wraps inner with the given profile. clock may be nil when
// the profile schedules no outages.
func NewInjector(p Profile, clock *simclock.Clock, inner http.Handler) *Injector {
	return &Injector{
		p: p.withDefaults(), clock: clock, inner: inner,
		attempts: make(map[string]int),
		m:        newFaultMetrics(nil, ""),
	}
}

// Instrument re-homes the injector's counters onto reg as
// doxmeter_fault_* series labeled by service. Call it before serving
// traffic: counts recorded earlier stay on the injector's private registry
// and are not migrated.
func (in *Injector) Instrument(reg *telemetry.Registry, service string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.m = newFaultMetrics(reg, service)
}

func (in *Injector) metrics() *faultMetrics {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.m
}

// Counters returns a snapshot of the injection tallies, read from the same
// registry instruments /metrics exports. Counters are independent atomics,
// so a snapshot taken while requests are in flight may be momentarily
// skewed — exactly like scraping /metrics.
func (in *Injector) Counters() Counters {
	m := in.metrics()
	return Counters{
		Requests:       int64(m.requests.Value()),
		Passed:         int64(m.passed.Value()),
		Status500:      int64(m.injected[Mode500].Value()),
		Status503:      int64(m.injected[Mode503].Value()),
		RateLimited:    int64(m.injected[Mode429].Value()),
		Resets:         int64(m.injected[ModeReset].Value()),
		Stalls:         int64(m.injected[ModeStall].Value()),
		Truncated:      int64(m.injected[ModeTruncate].Value()),
		Corrupted:      int64(m.injected[ModeCorrupt].Value()),
		OutageRejected: int64(m.injected[ModeOutage].Value()),
	}
}

// Profile returns the injector's (derived) profile.
func (in *Injector) Profile() Profile { return in.p }

func (in *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Path
	if r.URL.RawQuery != "" {
		key += "?" + r.URL.RawQuery
	}
	in.mu.Lock()
	in.m.requests.Inc()
	attempt := in.attempts[key]
	in.attempts[key]++
	in.mu.Unlock()

	if in.clock != nil && in.p.InOutage(in.clock.Now()) {
		in.bump(ModeOutage)
		http.Error(w, "injected: scheduled outage", http.StatusServiceUnavailable)
		return
	}

	switch mode := in.p.Decide(key, attempt); mode {
	case Mode500:
		in.bump(mode)
		http.Error(w, "injected: internal error", http.StatusInternalServerError)
	case Mode503:
		in.bump(mode)
		http.Error(w, "injected: unavailable", http.StatusServiceUnavailable)
	case Mode429:
		in.bump(mode)
		w.Header().Set("Retry-After", formatSeconds(in.p.RetryAfter))
		http.Error(w, "injected: rate limited", http.StatusTooManyRequests)
	case ModeReset:
		in.bump(mode)
		in.reset(w)
	case ModeStall, ModeTruncate:
		in.partial(w, r, mode)
	case ModeCorrupt:
		in.corrupt(w, r, key, attempt)
	default:
		in.bumpPassed()
		in.inner.ServeHTTP(w, r)
	}
}

func (in *Injector) bump(m Mode) {
	in.metrics().injected[m].Inc()
}

func (in *Injector) bumpPassed() {
	in.metrics().passed.Inc()
}

// reset closes the client connection abruptly. SetLinger(0) forces a TCP
// RST instead of a graceful FIN, which is what an overloaded frontend or a
// mid-path middlebox produces. The hijack goes through
// http.ResponseController, which sees past wrapping writers (the HTTP
// metrics middleware) to the connection.
func (in *Injector) reset(w http.ResponseWriter) {
	if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
		if tcp, ok := conn.(*net.TCPConn); ok {
			_ = tcp.SetLinger(0)
		}
		_ = conn.Close()
		return
	}
	// No hijack support (HTTP/2, the in-process transport): aborting the
	// handler still kills the response mid-flight.
	panic(http.ErrAbortHandler)
}

// partial serves the true response's headers (including the full
// Content-Length) but only a prefix of its body, then aborts — after a
// wall-clock hang for ModeStall. Clients observe an unexpected EOF with
// fewer bytes than advertised: exactly a flaky upstream cutting a transfer.
// Non-200 inner responses pass through unfaulted so error pages are not
// double-faulted.
func (in *Injector) partial(w http.ResponseWriter, r *http.Request, mode Mode) {
	rec := record(in.inner, r)
	if rec.code != http.StatusOK || len(rec.body) == 0 {
		in.bumpPassed()
		rec.replay(w)
		return
	}
	in.bump(mode)
	n := int(float64(len(rec.body)) * in.p.truncateFrac())
	if n >= len(rec.body) {
		n = len(rec.body) - 1
	}
	copyHeaders(w.Header(), rec.header)
	w.Header().Set("Content-Length", strconv.Itoa(len(rec.body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rec.body[:n])
	_ = http.NewResponseController(w).Flush()
	if mode == ModeStall {
		select {
		case <-time.After(in.p.stallFor()):
		case <-r.Context().Done():
		}
	}
	panic(http.ErrAbortHandler)
}

// corrupt replaces the true 200 payload with deterministic garbage that no
// parser accepts: invalid as JSON and carrying no HTML marker, so every
// downstream consumer can detect (and must quarantine) it rather than
// silently ingesting mangled content. Only structured payloads (JSON, HTML)
// are corrupted: a mangled raw text body would be indistinguishable from a
// legitimate one, which no client could ever defend against.
func (in *Injector) corrupt(w http.ResponseWriter, r *http.Request, key string, attempt int) {
	rec := record(in.inner, r)
	ct := rec.header.Get("Content-Type")
	if rec.code != http.StatusOK || !(strings.Contains(ct, "json") || strings.Contains(ct, "html")) {
		in.bumpPassed()
		rec.replay(w)
		return
	}
	in.bump(ModeCorrupt)
	h := hashUint64(hashString(key), uint64(attempt))
	payload := fmt.Sprintf("\x00\x1finjected-corruption %016x {{{", h)
	copyHeaders(w.Header(), rec.header)
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprint(w, payload)
}

// recorded captures an inner handler's response for faults that need the
// true payload in hand before mangling it.
type recorded struct {
	code   int
	header http.Header
	body   []byte
}

func record(h http.Handler, r *http.Request) *recorded {
	rec := &recorded{code: http.StatusOK, header: make(http.Header)}
	h.ServeHTTP((*recordWriter)(rec), r)
	return rec
}

func (rec *recorded) replay(w http.ResponseWriter) {
	copyHeaders(w.Header(), rec.header)
	w.WriteHeader(rec.code)
	_, _ = w.Write(rec.body)
}

type recordWriter recorded

func (rw *recordWriter) Header() http.Header { return rw.header }

func (rw *recordWriter) WriteHeader(code int) { rw.code = code }

func (rw *recordWriter) Write(b []byte) (int, error) {
	rw.body = append(rw.body, b...)
	return len(b), nil
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// formatSeconds renders a Retry-After value: integer seconds when whole
// (per RFC 7231), decimal seconds otherwise (a lenient extension real
// servers use and our crawler parses, keeping tests fast).
func formatSeconds(d time.Duration) string {
	if d <= 0 {
		return "0"
	}
	if d%time.Second == 0 {
		return strconv.Itoa(int(d / time.Second))
	}
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
}
