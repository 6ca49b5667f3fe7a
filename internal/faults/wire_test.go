package faults_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"doxmeter/internal/crawler"
	"doxmeter/internal/faults"
	"doxmeter/internal/telemetry"
)

// TestTruncateThroughHTTPMetrics: on a real socket, the HTTP metrics
// middleware in front of the injector must not hide the connection
// controls the partial modes need. A truncate fault reaches the client as
// a 200 with a short body (the injector flushes the prefix through the
// wrapper before aborting), so the Fetcher reports ErrTruncatedBody rather
// than a bare EOF before any header.
func TestTruncateThroughHTTPMetrics(t *testing.T) {
	body := strings.Repeat("t", 2000)
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = io.WriteString(w, body)
	})
	in := faults.NewInjector(faults.Profile{Seed: 3, PTruncate: 1, MaxFaultsPerURL: -1}, nil, inner)
	srv := httptest.NewServer(telemetry.HTTPMetrics(telemetry.NewRegistry(), "pastebin", nil, in))
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()

	f := crawler.NewFetcher(crawler.Options{
		Client:           &http.Client{Transport: tr},
		Retries:          -1,
		BreakerThreshold: -1,
	})
	_, err := f.GetText(context.Background(), srv.URL+"/api_scrape_item.php?i=k")
	if !errors.Is(err, crawler.ErrTruncatedBody) {
		t.Fatalf("err = %v, want ErrTruncatedBody", err)
	}
	if c := in.Counters(); c.Truncated != 1 {
		t.Fatalf("injector counters = %+v, want one truncation", c)
	}
}
