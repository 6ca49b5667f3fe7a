// Package stack wires the command-line front ends to the study engine,
// so flag names, defaults, help strings and behaviour stay identical
// across commands:
//
//   - Durability is the durable-run flag block (-state-dir,
//     -checkpoint-mode, -resume) that doxpipeline and doxnotify share;
//     a durable run cuts a checkpoint at the end of every study day.
//   - StudyFaults is the fault preset for a study whose services run
//     in-process.
//   - Stack serves core's simulated substrate over HTTP, with admin
//     endpoints, for cmd/doxsites and cmd/doxload's self-hosted mode: the
//     same handlers, and the same world, a study at that seed and scale
//     crawls.
package stack

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"doxmeter/internal/core"
	"doxmeter/internal/faults"
	"doxmeter/internal/simclock"
	"doxmeter/internal/telemetry"
)

// Config parameterizes one stack.
type Config struct {
	Seed  int64
	Scale float64 // corpus scale factor; <= 0 means 0.01
	// Faults, when non-nil, wraps every service in a deterministic fault
	// injector (independently seeded per service, like the pipeline's
	// chaos runs).
	Faults *faults.Profile
	// Telemetry, when non-nil, instruments every service with per-route
	// doxmeter_http_* series and the injectors with doxmeter_fault_*.
	Telemetry *telemetry.Hub
}

// Stack is one simulated substrate behind one http.Handler.
type Stack struct {
	*core.Substrate
	// Mux serves every site under its prefix plus the admin endpoints:
	//
	//	/pastebin/api_scraping.php?since=0&limit=50
	//	/pastebin/api_scrape_item.php?i=<key>
	//	/4chan/{b,pol}/catalog.json        /4chan/{b,pol}/thread/<no>.json
	//	/8ch/{pol,baphomet}/...
	//	/osn/{network}/{username}          /osn/instagram/id/<n>
	//	/admin/clock                       — current virtual time
	//	/admin/advance?days=7              — move the clock forward
	//	/admin/faults                      — injection counters per service
	//	/admin/accounts?limit=500          — "network/username" lines for
	//	                                     load-generator target harvesting
	Mux *http.ServeMux
}

// New builds the substrate and wires every service into Mux. Deterministic
// for a fixed (Seed, Scale), and the same world core.NewStudy crawls at
// that seed and scale.
func New(cfg Config) *Stack {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.01
	}
	sub, _ := core.NewSubstrate(cfg.Seed, cfg.Scale, cfg.Faults, cfg.Telemetry)
	st := &Stack{Substrate: sub}

	mux := http.NewServeMux()
	mux.Handle("/pastebin/", http.StripPrefix("/pastebin", sub.Handlers["pastebin"]))
	mux.Handle("/4chan/", http.StripPrefix("/4chan", sub.Handlers["fourchan"]))
	mux.Handle("/8ch/", http.StripPrefix("/8ch", sub.Handlers["eightch"]))
	mux.Handle("/osn/", http.StripPrefix("/osn", sub.Handlers["osn"]))
	mux.HandleFunc("/admin/clock", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, st.Clock.Now().Format(time.RFC3339))
	})
	mux.HandleFunc("/admin/advance", func(w http.ResponseWriter, req *http.Request) {
		days := 1
		if s := req.URL.Query().Get("days"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 || v > 3650 {
				http.Error(w, "bad days", http.StatusBadRequest)
				return
			}
			days = v
		}
		now := st.Clock.Advance(time.Duration(days) * simclock.Day)
		fmt.Fprintln(w, now.Format(time.RFC3339))
	})
	mux.HandleFunc("/admin/faults", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.Faults == nil {
			fmt.Fprintln(w, "fault injection off (start with -faults mild|heavy|outage)")
			return
		}
		for _, name := range []string{"pastebin", "fourchan", "eightch", "osn"} {
			fmt.Fprintf(w, "%-8s %+v\n", name, st.Injectors[name].Counters())
		}
	})
	mux.HandleFunc("/admin/accounts", func(w http.ResponseWriter, req *http.Request) {
		limit := 500
		if s := req.URL.Query().Get("limit"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = v
		}
		for i, a := range st.Universe.Accounts() {
			if i >= limit {
				break
			}
			fmt.Fprintf(w, "%s/%s\n", a.Ref.Network.Slug(), a.Ref.Username)
		}
	})
	st.Mux = mux
	return st
}

// ServeLocal binds the stack to an ephemeral loopback port and serves it in
// the background, returning the base URL and a shutdown func. Used by
// cmd/doxload's self-host mode and by tests.
func (st *Stack) ServeLocal() (baseURL string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("stack: listen: %w", err)
	}
	srv := &http.Server{Handler: st.Mux}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}
