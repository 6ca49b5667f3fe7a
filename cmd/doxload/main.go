// Command doxload is a loadgen-style traffic generator for the simulated
// serving stack. It drives a doxsites instance — an external one via
// -target, or a self-hosted in-process stack — at a configurable request
// rate and concurrency for a fixed duration, optionally behind a fault
// profile, and reports p50/p95/p99 latency (computed from its telemetry
// histograms), achieved request rate and per-route breakdowns.
//
// Usage:
//
//	doxload [-target http://127.0.0.1:8420] [-rate 200] [-concurrency 8]
//	        [-duration 5s] [-faults off] [-seed 42] [-scale 0.01] [-days 30]
//	        [-min-success 0] [-traces out.jsonl] [-admin addr] [-json]
//
// With no -target, doxload stands up its own stack on a loopback port
// (seed/scale/faults flags apply) and advances its virtual clock -days days
// so the sites have content to serve. Target URLs are harvested live from
// the stack itself: the pastebin scraping API, the board catalogs and the
// /admin/accounts listing.
//
// Exit status is 1 when the 2xx fraction falls below -min-success, making
// `make loadtest` a one-line smoke check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"doxmeter/internal/faults"
	"doxmeter/internal/simclock"
	"doxmeter/internal/stack"
	"doxmeter/internal/telemetry"
)

type target struct{ route, url string }

func main() {
	var (
		targetURL   = flag.String("target", "", "base URL of a running doxsites (empty = self-host an in-process stack)")
		rate        = flag.Float64("rate", 200, "target request rate per second (0 = unthrottled)")
		concurrency = flag.Int("concurrency", 8, "concurrent request workers")
		duration    = flag.Duration("duration", 5*time.Second, "how long to generate load")
		faultsName  = flag.String("faults", "off", "fault profile for the self-hosted stack: off, mild, heavy or outage")
		seed        = flag.Int64("seed", 42, "world seed (self-host) and request-mix seed")
		scale       = flag.Float64("scale", 0.01, "corpus scale for the self-hosted stack")
		days        = flag.Int("days", 30, "virtual days to advance the self-hosted clock before harvesting targets")
		minSuccess  = flag.Float64("min-success", 0, "exit 1 if the 2xx fraction is below this")
		tracesPath  = flag.String("traces", "", "write per-request spans as JSON Lines to this file")
		adminAddr   = flag.String("admin", "", "serve /metrics, /debug/traces and /debug/pprof on this address during the run")
		asJSON      = flag.Bool("json", false, "emit a machine-readable summary")
	)
	flag.Parse()
	if *concurrency < 1 {
		*concurrency = 1
	}
	if *rate < 0 {
		fatal(fmt.Errorf("-rate must be >= 0, got %v", *rate))
	}
	if *duration <= 0 {
		fatal(fmt.Errorf("-duration must be positive, got %v", *duration))
	}
	if *days < 0 {
		fatal(fmt.Errorf("-days must be >= 0, got %d", *days))
	}

	hub := telemetry.NewHub(16384, nil)
	base := *targetURL
	if base == "" {
		profile, err := faults.Preset(*faultsName, *seed+5)
		if err != nil {
			fatal(err)
		}
		if profile != nil {
			if err := profile.Validate(); err != nil {
				fatal(err)
			}
		}
		st := stack.New(stack.Config{Seed: *seed, Scale: *scale, Faults: profile, Telemetry: hub})
		if *days > 0 {
			st.Clock.Advance(time.Duration(*days) * simclock.Day)
		}
		url, shutdown, err := st.ServeLocal()
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		base = url
		fmt.Fprintf(os.Stderr, "doxload: self-hosted stack on %s (clock at %s, faults %s)\n",
			base, st.Clock.Now().Format("2006-01-02"), *faultsName)
	} else if *faultsName != "off" {
		fatal(fmt.Errorf("-faults applies only to the self-hosted stack; configure faults on the external doxsites instead"))
	}

	if *adminAddr != "" {
		go func() {
			if err := http.ListenAndServe(*adminAddr, hub.Handler()); err != nil {
				fatal(fmt.Errorf("admin listener: %w", err))
			}
		}()
	}

	client := &http.Client{Timeout: 10 * time.Second}
	pool, err := harvest(client, base)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "doxload: harvested %d target URLs across %d routes\n", len(pool), countRoutes(pool))

	reg := hub.Registry
	overall := reg.NewHistogram("doxload_request_seconds",
		"Client-observed latency of every generated request.", nil).With()
	perRoute := reg.NewHistogram("doxload_route_seconds",
		"Client-observed latency by route.", nil, "route")
	requests := reg.NewCounter("doxload_requests_total",
		"Generated requests by route and outcome (2xx/3xx/4xx/5xx/error).",
		"route", "outcome")

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	tokens := make(chan struct{}, *concurrency)
	go pace(ctx, *rate, tokens)

	tracing := *tracesPath != ""
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed ^ int64(w)<<32))
			for range tokens {
				t := pool[rng.Intn(len(pool))]
				var span *telemetry.Span
				if tracing {
					_, span = hub.Tracer.StartSpan(context.Background(), "request")
					span.SetAttr("route", t.route)
				}
				reqStart := time.Now()
				outcome := do(client, t.url)
				sec := time.Since(reqStart).Seconds()
				overall.Observe(sec)
				perRoute.With(t.route).Observe(sec)
				requests.With(t.route, outcome).Inc()
				span.SetAttr("outcome", outcome)
				span.End()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if *tracesPath != "" {
		f, err := os.Create(*tracesPath)
		if err != nil {
			fatal(err)
		}
		if err := hub.Tracer.WriteJSONL(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "doxload: wrote %d spans to %s (%d dropped by the ring buffer)\n",
			len(hub.Tracer.Spans()), *tracesPath, hub.Tracer.Dropped())
	}

	total := reg.Sum("doxload_requests_total")
	byOutcome := reg.SumBy("doxload_requests_total", "outcome")
	success := 0.0
	if total > 0 {
		success = byOutcome["2xx"] / total
	}
	achieved := total / elapsed.Seconds()

	if *asJSON {
		out := map[string]any{
			"requests":     int64(total),
			"elapsed_ms":   elapsed.Milliseconds(),
			"achieved_rps": achieved,
			"target_rps":   *rate,
			"success":      success,
			"by_outcome":   byOutcome,
			"p50_ms":       overall.Quantile(0.50) * 1000,
			"p95_ms":       overall.Quantile(0.95) * 1000,
			"p99_ms":       overall.Quantile(0.99) * 1000,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("doxload: %d requests in %v (%.1f rps achieved, target %.0f), %.1f%% success\n",
			int64(total), elapsed.Round(time.Millisecond), achieved, *rate, success*100)
		fmt.Printf("latency: p50=%.2fms p95=%.2fms p99=%.2fms\n",
			overall.Quantile(0.50)*1000, overall.Quantile(0.95)*1000, overall.Quantile(0.99)*1000)
		byRoute := reg.SumBy("doxload_requests_total", "route")
		routes := make([]string, 0, len(byRoute))
		for r := range byRoute {
			routes = append(routes, r)
		}
		sort.Strings(routes)
		fmt.Printf("%-38s %9s %9s %9s %9s\n", "route", "requests", "p50ms", "p95ms", "p99ms")
		for _, r := range routes {
			h := perRoute.With(r)
			fmt.Printf("%-38s %9d %9.2f %9.2f %9.2f\n", r, int64(byRoute[r]),
				h.Quantile(0.50)*1000, h.Quantile(0.95)*1000, h.Quantile(0.99)*1000)
		}
	}

	if success < *minSuccess {
		fmt.Fprintf(os.Stderr, "doxload: success fraction %.3f below -min-success %.3f\n", success, *minSuccess)
		os.Exit(1)
	}
}

// pace feeds tokens at the target rate until ctx expires, then closes the
// channel to stop the workers. Tokens that find the buffer full are dropped:
// an unachievable rate shows up as achieved < target, never as a backlog
// burst after a stall.
func pace(ctx context.Context, rate float64, tokens chan<- struct{}) {
	defer close(tokens)
	if rate <= 0 {
		for {
			select {
			case <-ctx.Done():
				return
			case tokens <- struct{}{}:
			}
		}
	}
	const step = 10 * time.Millisecond
	tick := time.NewTicker(step)
	defer tick.Stop()
	carry := 0.0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			carry += rate * step.Seconds()
			for ; carry >= 1; carry-- {
				select {
				case tokens <- struct{}{}:
				default:
				}
			}
		}
	}
}

// do issues one GET, drains the body, and classifies the outcome.
func do(client *http.Client, url string) string {
	resp, err := client.Get(url)
	if err != nil {
		return "error"
	}
	_, copyErr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if copyErr != nil {
		// Injected resets/truncations surface here as read errors.
		return "error"
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return "2xx"
	case resp.StatusCode < 400:
		return "3xx"
	case resp.StatusCode < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// harvest builds the target pool from the stack's own discovery surfaces.
// Each source is retried a few times (the stack may be behind a fault
// injector) and tolerated if it stays down; only an empty pool is fatal.
func harvest(client *http.Client, base string) ([]target, error) {
	var pool []target

	var metas []struct {
		Key string `json:"key"`
	}
	listURL := base + "/pastebin/api_scraping.php?since=0&limit=100"
	if err := getJSON(client, listURL, &metas); err == nil {
		pool = append(pool, target{"/pastebin/api_scraping.php", listURL})
		for _, m := range metas {
			pool = append(pool, target{"/pastebin/api_scrape_item.php",
				base + "/pastebin/api_scrape_item.php?i=" + m.Key})
		}
	}

	for _, b := range []struct{ prefix, board string }{
		{"/4chan", "b"}, {"/4chan", "pol"}, {"/8ch", "pol"}, {"/8ch", "baphomet"},
	} {
		var pages []struct {
			Threads []struct {
				No int64 `json:"no"`
			} `json:"threads"`
		}
		catURL := base + b.prefix + "/" + b.board + "/catalog.json"
		if err := getJSON(client, catURL, &pages); err != nil {
			continue
		}
		pool = append(pool, target{b.prefix + "/" + b.board + "/catalog.json", catURL})
		for _, pg := range pages {
			for _, th := range pg.Threads {
				pool = append(pool, target{b.prefix + "/" + b.board + "/thread/:n.json",
					fmt.Sprintf("%s%s/%s/thread/%d.json", base, b.prefix, b.board, th.No)})
			}
		}
	}

	if body, err := get(client, base+"/admin/accounts?limit=200"); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if network, _, ok := strings.Cut(line, "/"); ok {
				pool = append(pool, target{"/osn/" + network + "/:user", base + "/osn/" + line})
			}
		}
	}

	if len(pool) == 0 {
		return nil, fmt.Errorf("no targets harvested from %s — is the stack serving, and has its clock advanced past day 0?", base)
	}
	return pool, nil
}

// get fetches a URL with a small retry budget so harvesting survives a
// fault-injected stack.
func get(client *http.Client, url string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		resp, err := client.Get(url)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
			continue
		}
		return body, nil
	}
	return nil, lastErr
}

func getJSON(client *http.Client, url string, v any) error {
	body, err := get(client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func countRoutes(pool []target) int {
	seen := map[string]bool{}
	for _, t := range pool {
		seen[t.route] = true
	}
	return len(seen)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doxload:", err)
	os.Exit(1)
}
