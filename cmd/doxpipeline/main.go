// Command doxpipeline runs the paper's five-stage measurement pipeline end
// to end against the simulated text-sharing sites and social networks, and
// prints the Figure 1 funnel plus a study summary.
//
// Usage:
//
//	doxpipeline [-scale 0.05] [-seed 42] [-parallelism 0] [-faults off] [-progress] [-json]
//	            [-state-dir dir] [-checkpoint-mode full|delta] [-resume]
//	            [-admin addr] [-traces out.jsonl]
//
// With -state-dir the study is durable: at the end of every study day the
// pipeline state is checkpointed into the directory. -checkpoint-mode=full
// writes a complete snapshot each day; -checkpoint-mode=delta writes
// compact incremental diffs against the previous day, and a full
// compaction snapshot, cut once the deltas since the last full add up to
// its size, bounds the recovery chain. SIGINT/SIGTERM stops the run at
// the next day boundary after a final checkpoint; a second signal aborts
// immediately, losing at most the day in flight. -resume continues a
// killed run from its last checkpoint — replaying the delta chain when
// present — producing output bit-identical to an uninterrupted run. Both
// modes read each other's state dirs.
//
// The study is always instrumented on a telemetry hub; the exit-time
// counters in the stderr summary and the -json output are read from that
// same registry, so they can never disagree with what GET /metrics served
// mid-run (enable it with -admin).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"doxmeter/internal/core"
	"doxmeter/internal/experiments"
	"doxmeter/internal/monitor"
	"doxmeter/internal/stack"
	"doxmeter/internal/telemetry"
)

func main() {
	var (
		scale       = flag.Float64("scale", 0.05, "corpus scale factor")
		seed        = flag.Int64("seed", 42, "world seed")
		parallelism = flag.Int("parallelism", 0, "pipeline worker-pool size (0 = GOMAXPROCS, 1 = sequential); any value yields identical results")
		progress    = flag.Bool("progress", false, "print per-day progress to stderr")
		asJSON      = flag.Bool("json", false, "emit a machine-readable summary instead of tables")
		storePath   = flag.String("store", "", "write the §3.3 privacy-preserving datastore (JSON lines) to this file")
		storeSalt   = flag.String("store-salt", "doxmeter-store", "salt for account digests in the datastore")
		faultsName  = flag.String("faults", "off", "fault-injection profile for the simulated services: off, mild, heavy or outage")
		adminAddr   = flag.String("admin", "", "serve /metrics, /debug/traces and /debug/pprof on this address during the run (empty = off)")
		tracesPath  = flag.String("traces", "", "write the study's spans as JSON Lines to this file on exit")
	)
	var dur stack.Durability
	dur.RegisterFlags(flag.CommandLine, true)
	flag.Parse()
	if err := dur.Validate(); err != nil {
		fatal(err)
	}

	profile, crawl, err := stack.StudyFaults(*faultsName, *seed+5)
	if err != nil {
		fatal(err)
	}

	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
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
	fileStore, ckpt, err := dur.Open()
	if err != nil {
		fatal(err)
	}
	if fileStore != nil {
		defer fileStore.Close()
	}

	start := time.Now()
	s, err := core.NewStudy(core.StudyConfig{Seed: *seed, Scale: *scale, Parallelism: *parallelism, Progress: progressW, Faults: profile, Crawl: crawl, Checkpoint: ckpt, Telemetry: hub})
	if err != nil {
		fatal(err)
	}
	defer s.Close()

	var info core.ResumeInfo
	if dur.Resume {
		info, err = s.Resume()
		if err != nil {
			fatal(err)
		}
		if info.Resumed {
			fmt.Fprintf(os.Stderr, "doxpipeline: resumed at period %d day %d (virtual %s, snapshot seq %d)\n",
				info.Period, info.Day, info.VirtualTime.Format("2006-01-02"), info.Seq)
		} else {
			fmt.Fprintln(os.Stderr, "doxpipeline: no checkpoint found in state dir; starting fresh")
		}
	}

	// First SIGINT/SIGTERM: finish the day in flight, flush a final
	// checkpoint, exit cleanly. Second signal: abort via context, losing at
	// most the uncheckpointed day.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "doxpipeline: stopping at the next day boundary (signal again to abort)")
		s.RequestStop()
		<-sigCh
		fmt.Fprintln(os.Stderr, "doxpipeline: aborting")
		cancel()
	}()

	stopped := false
	if err := s.Run(ctx); err != nil {
		if !errors.Is(err, core.ErrStopped) {
			fatal(err)
		}
		stopped = true
		if dur.Durable() {
			fmt.Fprintf(os.Stderr, "doxpipeline: stopped after a final checkpoint; continue with -state-dir %s -resume\n", dur.StateDir)
		} else {
			fmt.Fprintln(os.Stderr, "doxpipeline: stopped (no -state-dir, nothing persisted)")
		}
	}
	elapsed := time.Since(start)
	reg := hub.Registry

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
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s (%d dropped by the ring buffer)\n",
			len(hub.Tracer.Spans()), *tracesPath, hub.Tracer.Dropped())
	}

	if profile != nil {
		// FaultCounters and FetchStats are snapshots of the telemetry
		// registry's atomics — the same series /metrics serves.
		fc := s.FaultCounters()
		fs := s.FetchStats()
		fmt.Fprintf(os.Stderr,
			"faults (%s): injected %d of %d requests (500s=%d 503s=%d 429s=%d resets=%d stalls=%d truncated=%d corrupted=%d outage=%d)\n",
			*faultsName, fc.Injected(), fc.Requests, fc.Status500, fc.Status503,
			fc.RateLimited, fc.Resets, fc.Stalls, fc.Truncated, fc.Corrupted, fc.OutageRejected)
		fmt.Fprintf(os.Stderr,
			"fetch: %d requests, %d retries, %d rate-limited, %d truncated, %d corrupt, %d quarantined, breaker opened %d times; %d poll failures, %d monitor failures\n",
			fs.Requests, fs.Retries, fs.RateLimited, fs.Truncated, fs.Corrupt,
			fs.Quarantined, fs.BreakerOpens,
			int(reg.Sum("doxmeter_poll_failures_total")),
			int(reg.Sum("doxmeter_monitor_sweep_failures_total")))
	}

	if *storePath != "" {
		store := s.BuildStore(*storeSalt)
		f, err := os.Create(*storePath)
		if err != nil {
			fatal(err)
		}
		if err := store.Export(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d sanitized records to %s (category indicators + salted digests only)\n",
			store.Len(), *storePath)
	}

	if *asJSON {
		verified, nonexistent := monitor.VerifiedCount(s.Monitor.Histories())
		// Every count below is read from the telemetry registry — the same
		// atomics GET /metrics serves — so this summary, the stderr lines
		// and a mid-run scrape can never disagree.
		flagged := reg.SumBy("doxmeter_docs_flagged_total", "period")
		dups := reg.SumBy("doxmeter_docs_duplicate_total", "verdict")
		collectedBySite := map[string]int{}
		for site, n := range reg.SumBy("doxmeter_docs_collected_total", "site") {
			collectedBySite[site] = int(n)
		}
		out := map[string]any{
			"scale":               *scale,
			"seed":                *seed,
			"elapsed_ms":          elapsed.Milliseconds(),
			"collected":           int(reg.Sum("doxmeter_docs_collected_total")),
			"collected_by_site":   collectedBySite,
			"flagged_pre_filter":  int(flagged["1"]),
			"flagged_post_filter": int(flagged["2"]),
			"duplicates_exact":    int(dups["exact-duplicate"]),
			"duplicates_account":  int(dups["account-duplicate"]),
			"unique_doxes":        int(reg.Sum("doxmeter_doxes_unique_total")),
			"accounts_verified":   verified,
			"accounts_dropped":    nonexistent,
			"resumed":             info.Resumed,
			"stopped":             stopped,
		}
		if dur.Durable() {
			out["state_dir"] = dur.StateDir
			out["checkpoints_written"] = s.CheckpointsWritten
			out["checkpoint_mode"] = dur.Mode
			if dur.DeltaMode() {
				out["checkpoint_chain_length"] = int(reg.Sum("doxmeter_checkpoint_chain_length"))
			}
			if info.Resumed {
				out["resumed_from_period"] = info.Period
				out["resumed_from_day"] = info.Day
			}
		}
		if profile != nil {
			out["faults_profile"] = *faultsName
			out["faults_injected"] = int(reg.Sum("doxmeter_fault_injected_total"))
			out["fetch_retries"] = int(reg.Sum("doxmeter_fetch_retries_total"))
			out["breaker_opens"] = int(reg.Sum("doxmeter_fetch_breaker_opens_total"))
			out["poll_failures"] = int(reg.Sum("doxmeter_poll_failures_total"))
			out["monitor_failures"] = int(reg.Sum("doxmeter_monitor_sweep_failures_total"))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println(experiments.Figure1(s))
	fmt.Println(experiments.Table1(s))
	fmt.Printf("classifier vocabulary: %d terms\n", s.Classifier.VocabSize())
	fmt.Printf("study wall time: %v at scale %.3f (%d documents)\n",
		elapsed.Round(time.Millisecond), *scale, s.Collected)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doxpipeline:", err)
	os.Exit(1)
}
