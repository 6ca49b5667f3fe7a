package telemetry

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerBundle(t *testing.T) {
	hub := NewHub(16, nil)
	hub.Registry.NewCounter("bundle_total", "").With().Add(5)
	_, s := hub.Tracer.StartSpan(context.Background(), "probe")
	s.End()

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "bundle_total 5") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body = get("/debug/traces")
	if code != http.StatusOK || !strings.Contains(body, `"name":"probe"`) {
		t.Errorf("/debug/traces = %d %q", code, body)
	}
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

func TestHandlerBundleNilHub(t *testing.T) {
	var hub *Hub
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/traces"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s on nil hub = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestHTTPMetricsMiddleware(t *testing.T) {
	reg := NewRegistry()
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "missing") {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("ok"))
	})
	h := HTTPMetrics(reg, "board", nil, inner)
	for _, path := range []string{"/b/thread/123.json", "/b/thread/456.json", "/b/missing/7"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	var out strings.Builder
	reg.WritePrometheus(&out)
	text := out.String()
	for _, want := range []string{
		`doxmeter_http_requests_total{service="board",route="/b/thread/:n.json",code="200"} 2`,
		`doxmeter_http_requests_total{service="board",route="/b/missing/:n",code="404"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if got := reg.Sum("doxmeter_http_requests_total"); got != 3 {
		t.Errorf("request total %v, want 3", got)
	}
}

// stringRecorder counts the WriteString calls that reach it.
type stringRecorder struct {
	*httptest.ResponseRecorder
	strings int
}

func (r *stringRecorder) WriteString(s string) (int, error) {
	r.strings++
	return r.ResponseRecorder.WriteString(s)
}

// TestHTTPMetricsKeepsWriterControls: the wrapped handler still reaches
// the underlying writer's Flush through http.ResponseController, and a
// string body reaches its WriteString rather than a []byte copy.
func TestHTTPMetricsKeepsWriterControls(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "partial")
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("Flush through the metrics wrapper: %v", err)
		}
	})
	rec := &stringRecorder{ResponseRecorder: httptest.NewRecorder()}
	HTTPMetrics(NewRegistry(), "pastebin", nil, inner).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if !rec.Flushed {
		t.Error("the underlying writer was never flushed")
	}
	if rec.strings != 1 || rec.Body.String() != "partial" {
		t.Errorf("WriteString calls = %d, body %q; want 1 and \"partial\"", rec.strings, rec.Body.String())
	}
}

func TestHTTPMetricsNilRegistryPassThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(204) })
	h := HTTPMetrics(nil, "x", nil, inner)
	if _, ok := h.(http.HandlerFunc); !ok {
		// h must be exactly inner; calling it proves it still works either way.
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != 204 {
		t.Errorf("pass-through broke the handler: %d", rec.Code)
	}
}

func TestNormalizePath(t *testing.T) {
	for path, want := range map[string]string{
		"/b/thread/1234.json":        "/b/thread/:n.json",
		"/pol/catalog.json":          "/pol/catalog.json",
		"/api_scraping.php?since=9":  "/api_scraping.php",
		"/instagram/id/42":           "/instagram/id/:n",
		"/":                          "/",
		"/osn/twitter/user1234extra": "/osn/twitter/user1234extra", // mixed segment kept
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if got := NormalizePath(req); got != want {
			t.Errorf("NormalizePath(%s) = %s, want %s", path, got, want)
		}
	}
}
