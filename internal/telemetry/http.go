package telemetry

import (
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Handler returns the admin endpoint bundle every long-running command
// mounts:
//
//	GET /metrics        — the registry in Prometheus text format
//	GET /debug/traces   — the tracer's buffered spans as JSON Lines
//	GET /debug/pprof/*  — the standard net/http/pprof profiles
//
// A nil hub (or nil registry/tracer) serves empty bodies rather than 404s,
// so probes keep working when telemetry is off.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h.Reg().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = h.Trc().WriteJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statusWriter captures the response code for the request counter.
// Unwrap exposes the underlying writer to http.ResponseController, so a
// wrapped handler can still flush and hijack the connection, and
// WriteString keeps the underlying writer's copy-free string path.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) WriteString(s string) (int, error) {
	return io.WriteString(sw.ResponseWriter, s)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// HTTPMetrics wraps an http.Handler with per-route request counting and
// latency histograms:
//
//	doxmeter_http_requests_total{service,route,code}
//	doxmeter_http_request_seconds{service,route}
//
// routeOf maps a request to a low-cardinality route label (nil falls back
// to NormalizePath). A nil registry returns next untouched — the zero-cost
// path.
//
// The wrapper deliberately does not recover panics: the fault injector's
// reset/stall modes abort responses via http.ErrAbortHandler and the
// net/http server must keep seeing that panic. Aborted requests are simply
// not counted, like a mid-flight connection loss in a real frontend. A
// hijacked connection (the injector's reset mode on a real socket) counts
// under the status written before the hijack, 200 when none was.
func HTTPMetrics(reg *Registry, service string, routeOf func(*http.Request) string, next http.Handler) http.Handler {
	if reg == nil {
		return next
	}
	if routeOf == nil {
		routeOf = NormalizePath
	}
	requests := reg.NewCounter("doxmeter_http_requests_total",
		"HTTP requests served, by service, route and status code.",
		"service", "route", "code")
	latency := reg.NewHistogram("doxmeter_http_request_seconds",
		"HTTP request handling latency in seconds.", nil,
		"service", "route")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		latency.With(service, route).Observe(time.Since(start).Seconds())
		requests.With(service, route, statusText(sw.code)).Inc()
	})
}

// statusText renders a status code label without fmt.
func statusText(code int) string {
	if code >= 100 && code < 600 {
		const digits = "0123456789"
		return string([]byte{digits[code/100], digits[code/10%10], digits[code%10]})
	}
	return "000"
}

// NormalizePath maps a URL path to a bounded-cardinality route label by
// replacing numeric path segments (and numeric .json stems) with ":n" and
// dropping the query string: /b/thread/1234.json → /b/thread/:n.json.
func NormalizePath(r *http.Request) string {
	segs := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	for i, s := range segs {
		stem, suffix := s, ""
		if j := strings.IndexByte(s, '.'); j >= 0 {
			stem, suffix = s[:j], s[j:]
		}
		if stem != "" && isDigits(stem) {
			segs[i] = ":n" + suffix
		}
	}
	return "/" + strings.Join(segs, "/")
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
