// Command doxnotify runs the paper's proposed mitigation services (§7):
// the Have-I-Been-Doxed notification registry, the anti-SWATing watchlist,
// and the threat-exchange feed.
//
// Usage:
//
//	doxnotify [-scale 0.02] [-seed 42] [-addr 127.0.0.1:8421] [-salt s] [-admin addr]
//	          [-faults off] [-progress]
//	          [-state-dir dir] [-checkpoint-every 1] [-resume]
//
// It runs the study in service mode: the three services are live from the
// first virtual day — every committed detection fans out to them as its
// day commits — and the HTTP API serves throughout the run. After the
// study's two periods complete the services keep serving their final
// state. A first SIGINT/SIGTERM stops at the next day boundary after a
// final checkpoint; a second aborts. With -state-dir the run is durable
// and -resume continues a killed service — including the notification
// registry, watchlist and feed state — from its last checkpoint (keep
// -salt identical across restarts: digests are salted and the salt is
// never persisted).
//
// Endpoints:
//
//	/notify/subscribe /notify/unsubscribe /notify/notifications /notify/stats
//	/watchlist/check?address=...|phone=...
//	/feed/events?cursor=0[&wait=5s]
//
// With -admin set, the telemetry bundle (/metrics, /debug/traces,
// /debug/pprof) is served on that second address: the pipeline metrics
// (stage timings, paste-seen→alert latency) plus per-route request
// counters for the three services.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"doxmeter/internal/core"
	"doxmeter/internal/faults"
	"doxmeter/internal/feed"
	"doxmeter/internal/notify"
	"doxmeter/internal/stack"
	"doxmeter/internal/stream"
	"doxmeter/internal/telemetry"
	"doxmeter/internal/watchlist"
)

func main() {
	var (
		scale      = flag.Float64("scale", 0.02, "corpus scale for the study")
		seed       = flag.Int64("seed", 42, "world seed")
		addr       = flag.String("addr", "127.0.0.1:8421", "listen address")
		adminAddr  = flag.String("admin", "", "serve /metrics, /debug/traces and /debug/pprof on this second address (empty = off)")
		salt       = flag.String("salt", "doxmeter-demo-salt", "registry salt (keep identical across -resume restarts)")
		faultsName = flag.String("faults", "off", "fault-injection profile for the simulated services: off, mild, heavy or outage")
		progress   = flag.Bool("progress", false, "print per-day progress to stderr")
	)
	var dur stack.Durability
	dur.RegisterFlags(flag.CommandLine, false)
	flag.Parse()
	if err := dur.Validate(); err != nil {
		fatal(err)
	}

	profile, err := faults.Preset(*faultsName, *seed+5)
	if err != nil {
		fatal(err)
	}

	hub := telemetry.NewHub(0, nil)
	if *adminAddr != "" {
		go func() {
			if err := http.ListenAndServe(*adminAddr, hub.Handler()); err != nil {
				fatal(fmt.Errorf("admin listener: %w", err))
			}
		}()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", *adminAddr)
	}

	// The services exist before the study so its commits can fan out into
	// them; the watchlist reads the study's virtual clock so its TTL
	// windows live in simulated time.
	notifySvc := notify.NewService(*salt)
	notifySvc.Instrument(hub.Registry)
	var s *core.Study
	wl := watchlist.New(0, func() time.Time {
		if s != nil {
			return s.Clock.Now()
		}
		return time.Now()
	})
	log := feed.NewLog()
	fan := &stream.Fanout{Notify: notifySvc, Watchlist: wl, Feed: log}

	cfg := core.StudyConfig{Seed: *seed, Scale: *scale, Faults: profile, Telemetry: hub,
		Stream: &core.StreamConfig{Fanout: fan}}
	if *progress {
		cfg.Progress = os.Stderr
	}
	fileStore, ckpt, err := dur.Open()
	if err != nil {
		fatal(err)
	}
	if fileStore != nil {
		defer fileStore.Close()
	}
	cfg.Checkpoint = ckpt

	s, err = core.NewStudy(cfg)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	if dur.Resume {
		info, err := s.Resume()
		if err != nil {
			fatal(err)
		}
		if info.Resumed {
			fmt.Fprintf(os.Stderr, "doxnotify: resumed at period %d day %d (virtual %s); service state restored\n",
				info.Period, info.Day, info.VirtualTime.Format("2006-01-02"))
		} else {
			fmt.Fprintln(os.Stderr, "doxnotify: no checkpoint found in state dir; starting fresh")
		}
	}

	mux := http.NewServeMux()
	reg := hub.Registry
	mux.Handle("/notify/", http.StripPrefix("/notify", telemetry.HTTPMetrics(reg, "notify", nil, notifySvc.Handler())))
	mux.Handle("/watchlist/", http.StripPrefix("/watchlist", telemetry.HTTPMetrics(reg, "watchlist", nil, wl.Handler())))
	mux.Handle("/feed/", http.StripPrefix("/feed", telemetry.HTTPMetrics(reg, "feed", nil, log.Handler())))

	// Serve the three services while the study runs: subscriptions
	// registered mid-run catch doxes committed on later virtual days, the
	// feed long-poll delivers events as days commit, and the watchlist
	// answers dispatch checks against live state.
	go func() {
		if err := http.ListenAndServe(*addr, mux); err != nil {
			fatal(err)
		}
	}()
	fmt.Printf("doxnotify on http://%s (services live from day 1)\n", *addr)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "doxnotify: stopping at the next day boundary (signal again to abort)")
		s.RequestStop()
		<-sigCh
		fmt.Fprintln(os.Stderr, "doxnotify: aborting")
		cancel()
	}()

	if err := s.Run(ctx); err != nil {
		if !errors.Is(err, core.ErrStopped) {
			fatal(err)
		}
		if dur.StateDir != "" {
			fmt.Fprintf(os.Stderr, "doxnotify: stopped after a final checkpoint; continue with -state-dir %s -resume\n", dur.StateDir)
		}
		return
	}
	ids, ingested, notified := notifySvc.Stats()
	fmt.Fprintf(os.Stderr, "doxnotify: study complete — %d identifiers registered, %d doxes ingested, %d notifications; still serving\n",
		ids, ingested, notified)
	// The run is over; the stop/abort handler no longer applies. Keep
	// serving the final state until the next signal.
	signal.Stop(sigCh)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, os.Interrupt, syscall.SIGTERM)
	<-quit
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doxnotify:", err)
	os.Exit(1)
}
