// Command doxsites stands up the simulated text-sharing sites and social
// networks on local ports for interactive exploration: the same services
// the pipeline crawls, plus an admin endpoint that advances the virtual
// clock so you can watch posts appear and doxed accounts lock down.
//
// Usage:
//
//	doxsites [-scale 0.01] [-seed 42] [-addr 127.0.0.1:8420] [-faults off] [-admin addr]
//
// Endpoints (all under one address):
//
//	/pastebin/api_scraping.php?since=0&limit=50
//	/pastebin/api_scrape_item.php?i=<key>
//	/4chan/{b,pol}/catalog.json            /4chan/{b,pol}/thread/<no>.json
//	/8ch/{pol,baphomet}/catalog.json       ...
//	/osn/{network}/{username}              /osn/instagram/id/<n>
//	/admin/clock                           — current virtual time
//	/admin/advance?days=7                  — move the clock forward
//	/admin/faults                          — fault-injection counters per service
//	/admin/accounts?limit=500              — account list for load generators
//
// With -admin set, a telemetry bundle (/metrics in Prometheus text format,
// /debug/traces, /debug/pprof) is served on that second address, carrying
// per-route request counters and latency histograms for every service plus
// the fault injectors' doxmeter_fault_* series.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"doxmeter/internal/faults"
	"doxmeter/internal/stack"
	"doxmeter/internal/telemetry"
)

func main() {
	var (
		scale      = flag.Float64("scale", 0.01, "corpus scale factor")
		seed       = flag.Int64("seed", 42, "world seed")
		addr       = flag.String("addr", "127.0.0.1:8420", "listen address")
		adminAddr  = flag.String("admin", "", "serve /metrics, /debug/traces and /debug/pprof on this second address (empty = off)")
		faultsName = flag.String("faults", "off", "fault-injection profile for the served sites: off, mild, heavy or outage")
	)
	flag.Parse()

	profile, err := faults.Preset(*faultsName, *seed+5)
	if err != nil {
		fatal(err)
	}

	hub := telemetry.NewHub(0, nil)
	st := stack.New(stack.Config{Seed: *seed, Scale: *scale, Faults: profile, Telemetry: hub})

	if *adminAddr != "" {
		go func() {
			if err := http.ListenAndServe(*adminAddr, hub.Handler()); err != nil {
				fatal(fmt.Errorf("admin listener: %w", err))
			}
		}()
		fmt.Printf("telemetry on http://%s/metrics (traces at /debug/traces, profiles at /debug/pprof)\n", *adminAddr)
	}

	fmt.Printf("doxsites serving %d documents and %d social accounts on http://%s\n",
		st.Corpus().TotalDocs(), len(st.Universe.Accounts()), *addr)
	fmt.Printf("virtual clock starts at %s; advance with /admin/advance?days=N\n",
		st.Clock.Now().Format("2006-01-02"))
	if err := http.ListenAndServe(*addr, st.Mux); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doxsites:", err)
	os.Exit(1)
}
