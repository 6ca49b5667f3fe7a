// Package core orchestrates the paper's end-to-end measurement (Figure 1):
// synthetic world → simulated sites → crawlers → html2text → TF-IDF/SGD dox
// classifier → OSN account extractor → de-duplication → account monitor —
// followed by the paper's analyses (content labeling, doxer networks, geo
// and deletion validation, status-change measurement).
//
// Everything downstream of the generator operates only on crawled text and
// HTTP responses; ground truth is consulted exclusively by the benchmarks
// that grade the pipeline's output.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"doxmeter/internal/classifier"
	"doxmeter/internal/crawler"
	"doxmeter/internal/dedup"
	"doxmeter/internal/extract"
	"doxmeter/internal/faults"
	"doxmeter/internal/htmltext"
	"doxmeter/internal/label"
	"doxmeter/internal/monitor"
	"doxmeter/internal/netid"
	"doxmeter/internal/osn"
	"doxmeter/internal/parallel"
	"doxmeter/internal/randutil"
	"doxmeter/internal/sim"
	"doxmeter/internal/simclock"
	"doxmeter/internal/sites"
	"doxmeter/internal/store"
	"doxmeter/internal/stream"
	"doxmeter/internal/telemetry"
	"doxmeter/internal/textgen"
)

// StudyConfig parameterizes a full study run.
type StudyConfig struct {
	Seed  int64
	Scale float64
	// ControlSample is the Instagram random-sample size; 0 scales the
	// paper's 13,392 by Scale with a floor of 1,000.
	ControlSample int
	// Extract configures the per-document account extractor, which runs
	// the fused single-pass kernel (bit-identical to the regex reference
	// extractor on every document, enforced by TestStudyKernelEquivalence).
	Extract extract.Options
	// LabelSample is how many flagged doxes the analyst labels; 0 uses
	// the paper's 464 (capped at the number available).
	LabelSample int
	// Parallelism bounds every concurrent stage of the pipeline: the
	// per-day source-poll fan-out, the in-crawler body/thread fetch
	// concurrency, the CPU-hot per-document worker pool
	// (html→text → TF-IDF → classify → extract), and the monitor's
	// due-account sweep. Zero means runtime.GOMAXPROCS(0); 1 (or any
	// negative value) runs fully sequentially. Results are identical at
	// any setting: fetch and compute stages fan out, but all state
	// mutation happens in a commit stage ordered by (Posted, Site, ID).
	Parallelism int
	// Progress, when non-nil, receives one line per study day.
	Progress io.Writer
	// Crawl is the shared fetch-hardening policy (retries, backoff,
	// Retry-After cap, circuit breaker, request timeout) applied to every
	// HTTP consumer — the five crawlers and the monitor. Client and
	// Concurrency are managed by the study (Concurrency follows
	// Parallelism); an unset Seed derives from the study seed so backoff
	// jitter is reproducible.
	Crawl crawler.Options
	// Faults, when non-nil, wraps every simulated service with a
	// deterministic fault injector (see internal/faults). Each service
	// gets an independently-seeded derivation of the profile.
	Faults *faults.Profile
	// RecordCollectedIDs retains the "site/id" key and posted time of
	// every committed document in Study.CollectedIDs. Test/diagnostic
	// hook for no-data-loss audits; off by default because a full-scale
	// run commits millions of documents.
	RecordCollectedIDs bool
	// Checkpoint, when non-nil, makes the study durable: at the end of
	// every study day the mutable pipeline state is cut through Store, and
	// a per-day commit-log entry carries the rolling run digest. A killed
	// run is resumed with Resume before Run; results are bit-identical to
	// an uninterrupted run at any Parallelism, with or without fault
	// injection.
	Checkpoint *CheckpointConfig
	// Stream, when non-nil, runs the study in service mode: with Fanout
	// attached, commit delivers every unique dox to the §7 mitigation
	// services as its day commits, and their state rides the study's
	// checkpoints. Study results are bit-identical with or without it.
	Stream *StreamConfig
	// Telemetry, when non-nil, instruments the whole study on the hub:
	// doxmeter_stage_seconds / doxmeter_doc_stage_seconds histograms and
	// the study counters on the registry, per-day spans (stamped with both
	// wall and virtual time) on the tracer, doxmeter_fetch_* series for
	// every crawler and the monitor, doxmeter_fault_* series for the
	// injectors, and doxmeter_http_* per-route series on the simulated
	// services. Telemetry only observes — study results are bit-identical
	// with it on or off at any Parallelism (enforced by test).
	Telemetry *telemetry.Hub
}

// CheckpointMode selects how checkpoints are encoded.
type CheckpointMode string

const (
	// CheckpointFull writes a complete snapshot at every cut (the
	// default). Any store.Store backend works.
	CheckpointFull CheckpointMode = "full"
	// CheckpointDelta writes a full snapshot only at the chain anchors
	// and a compact diff against the previous cut in between. The first
	// cut is a full; each later full is a compaction, written once the
	// deltas since the last full add up to at least that full's encoded
	// size, so a resume replays about as many delta bytes as its anchor
	// holds at most.
	CheckpointDelta CheckpointMode = "delta"
)

// StreamConfig parameterizes service mode.
type StreamConfig struct {
	// Fanout, when non-nil, receives every committed unique dox on the
	// driver goroutine, in commit order: notification registry,
	// anti-SWATing watchlist, threat-exchange feed (any subset). Attached
	// services are included in checkpoints and restored on Resume; the
	// watchlist is purged on a daily janitor tick. Snapshots written
	// before a service attached leave it starting fresh; detaching a
	// service mid-way through a delta-mode state dir is refused at the
	// next resume (a delta chain may add components, never drop them).
	Fanout *stream.Fanout
}

// CheckpointConfig wires a persistence backend into the study.
type CheckpointConfig struct {
	// Store receives snapshots and commit-log entries. Required.
	Store store.Store
	// Mode selects full or delta encoding; empty means CheckpointFull.
	Mode CheckpointMode
}

// ErrInvalidConfig is wrapped by every StudyConfig.Validate failure.
var ErrInvalidConfig = errors.New("core: invalid StudyConfig")

// Validate rejects configurations withDefaults cannot repair. The zero
// value is valid (every field means "use the default"). Embedded crawl and
// fault policies are validated through their own contracts, so errors.Is
// also matches crawler.ErrInvalidOptions / faults.ErrInvalidProfile.
func (c StudyConfig) Validate() error {
	bad := func(field string, v any) error {
		return fmt.Errorf("%w: %s = %v", ErrInvalidConfig, field, v)
	}
	if c.Scale < 0 {
		return bad("Scale", c.Scale)
	}
	if c.ControlSample < 0 {
		return bad("ControlSample", c.ControlSample)
	}
	if c.LabelSample < 0 {
		return bad("LabelSample", c.LabelSample)
	}
	if err := c.Crawl.Validate(); err != nil {
		return fmt.Errorf("%w: Crawl: %w", ErrInvalidConfig, err)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("%w: Faults: %w", ErrInvalidConfig, err)
		}
	}
	if ck := c.Checkpoint; ck != nil {
		if ck.Store == nil {
			return bad("Checkpoint.Store", nil)
		}
		switch ck.Mode {
		case "", CheckpointFull, CheckpointDelta:
		default:
			return bad("Checkpoint.Mode", ck.Mode)
		}
	}
	return nil
}

func (c StudyConfig) withDefaults() StudyConfig {
	if ck := c.Checkpoint; ck != nil {
		mode := ck.Mode
		if mode == "" {
			mode = CheckpointFull
		}
		c.Checkpoint = &CheckpointConfig{Store: ck.Store, Mode: mode}
	}
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.ControlSample == 0 {
		c.ControlSample = int(13392 * c.Scale)
		if c.ControlSample < 1000 {
			c.ControlSample = 1000
		}
	}
	if c.LabelSample == 0 {
		c.LabelSample = 464
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.Crawl.Seed == 0 {
		c.Crawl.Seed = c.Seed ^ 0x6665746368 // "fetch"
	}
	if c.Crawl.RequestTimeout == 0 {
		c.Crawl.RequestTimeout = 30 * time.Second
	}
	return c
}

// DoxRecord is one classifier-flagged, de-duplicated dox document.
//
// TextDigest, Labels and Geo are derived from the raw text in prepare.
// They are what the post-study analyses read, and they are all a durable
// study persists: on a resumed run Text is empty and Extraction carries
// only the fields the §3.3 discipline allows on disk (OSN usernames and
// credit aliases — the paper's explicit exceptions).
type DoxRecord struct {
	DocID      string
	Site       string
	Posted     time.Time
	Period     int    // 1 or 2
	Text       string // raw text; in-memory only, never checkpointed
	Extraction *extract.Extraction

	TextDigest string       // hex SHA-256 of Text
	Labels     label.Labels // §3.2 analyst labels (categories/brackets)
	Geo        GeoOutcome   // §4.1 IP-vs-postal comparison, precomputed
}

// Study owns a full pipeline run. Create with NewStudy, execute with Run,
// then read Results.
type Study struct {
	Cfg   StudyConfig
	World *sim.World
	Gen   *textgen.Generator
	Clock *simclock.Clock

	Universe *osn.Universe
	Pastebin *sites.Pastebin
	Fourchan *sites.BoardSite
	Eightch  *sites.BoardSite

	Classifier *classifier.Classifier
	ClfEval    classifier.EvalResult
	Deduper    *dedup.Deduper
	Monitor    *monitor.Monitor

	crawlers struct {
		pastebin *crawler.Pastebin
		boards   []*crawler.Board
	}
	rng *rand.Rand
	m   *studyMetrics

	// components is the table of checkpoint components (see
	// components.go); the snapshot, restore and delta paths iterate it.
	components []component

	// fanout is StudyConfig.Stream.Fanout, nil outside service mode;
	// polledAt maps each source to the wall time its current day's poll
	// returned, the start of that source's alert latency.
	fanout   *stream.Fanout
	polledAt map[string]time.Time

	// Injectors maps service name (pastebin, fourchan, eightch, osn) to
	// its fault injector; empty when StudyConfig.Faults is nil.
	Injectors map[string]*faults.Injector
	// PollFailures counts the polls per source that still failed after all
	// retries. Each failed poll degrades that day's sweep; the documents
	// involved stay uncommitted in the crawler and are collected by a
	// later poll, so nothing is lost — only delayed.
	PollFailures map[string]int
	// MonitorFailures counts monitor sweeps that failed mid-commit; due
	// accounts stay due and are revisited on the next sweep.
	MonitorFailures int

	// CollectedIDs maps "site/id" to posted time for every committed
	// document; nil unless StudyConfig.RecordCollectedIDs is set.
	CollectedIDs map[string]time.Time

	// Results, populated by Run.
	Collected       int
	CollectedBySite map[string]int
	FlaggedByPeriod [3]int // index 1 and 2
	Doxes           []*DoxRecord
	pastebinP1Docs  []crawler.Doc   // period-1 pastebin docs for Table 3
	flaggedP1       map[string]bool // period-1 pastebin IDs flagged as dox
	corpus          *textgen.Corpus

	// CheckpointsWritten counts snapshots persisted by this process
	// (provenance for doxpipeline -json).
	CheckpointsWritten int

	// Durability state; see snapshot.go.
	ckptSeq   uint64
	daysDone  int       // days fully committed, across both periods
	runDigest [32]byte  // rolling digest chained over per-day commit streams
	dayHasher hash.Hash // open digest for the day being processed
	stopReq   atomic.Bool
	resumed   bool
	resumeP   int // period of the restored snapshot
	resumeDay int // day (within resumeP) of the restored snapshot

	// Delta-checkpoint state; see delta.go. The core journal tracks what
	// changed in the study's own component since the last cut; providers
	// keep their own journals behind SetDeltaJournal.
	deltaMode         bool            // Checkpoint.Mode == CheckpointDelta
	haveBase          bool            // a full snapshot anchors the current chain
	cutsSinceFull     int             // delta cuts since the last full (the chain length)
	fullBytes         int             // encoded bytes of the last full
	deltaBytes        int             // encoded bytes of the deltas since it
	inChain           map[string]bool // components whose state the chain holds
	ckptDoxN          int             // len(Doxes) at the last cut
	ckptP1N           int             // len(pastebinP1Docs) at the last cut
	addedFlaggedP1    []string        // flaggedP1 keys added since the last cut
	addedCollectedIDs []string        // CollectedIDs keys added since the last cut

	// Commit scratch, reused across documents (commit runs only on the
	// driver goroutine): the site/id key bytes.
	keyScratch []byte
}

// ErrStopped is returned by Run after RequestStop: the study checkpointed
// its state at the last completed day and exited cleanly. Re-create the
// study with the same config, call Resume, and Run again to continue.
var ErrStopped = errors.New("core: study stopped by request after checkpoint")

// RequestStop asks a running study to stop at the next day boundary, after
// flushing a final checkpoint. Safe to call from any goroutine (e.g. a
// signal handler).
func (s *Study) RequestStop() { s.stopReq.Store(true) }

// Corpus exposes the generated document population (ground truth; used by
// graders and secondary-venue analyses, never by the pipeline itself).
func (s *Study) Corpus() *textgen.Corpus { return s.corpus }

// NewStudy builds the world, trains the classifier (recording its Table 1
// evaluation), and stands up the simulated services in-process.
func NewStudy(cfg StudyConfig) (*Study, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Study{
		Cfg:             cfg,
		Clock:           simclock.NewClock(simclock.Period1.Start),
		Deduper:         dedup.New(),
		CollectedBySite: make(map[string]int),
		Injectors:       make(map[string]*faults.Injector),
		PollFailures:    make(map[string]int),
		polledAt:        make(map[string]time.Time),
		flaggedP1:       make(map[string]bool),
		rng:             randutil.New(cfg.Seed ^ 0x636f7265), // "core"
		m:               newStudyMetrics(cfg.Telemetry),
	}
	// Spans record virtual time from the study clock; the hub outlives the
	// study, so a later study on the same hub simply re-points this.
	if tr := cfg.Telemetry.Trc(); tr != nil {
		tr.VirtualNow = s.Clock.Now
	}
	if cfg.RecordCollectedIDs {
		s.CollectedIDs = make(map[string]time.Time)
	}
	s.World = sim.NewWorld(sim.Default(cfg.Seed, cfg.Scale))
	s.Gen = textgen.New(s.World)

	// Train and evaluate the classifier on the labeled corpus (§3.1.2).
	examples := s.Gen.TrainingSet()
	exs := make([]classifier.Example, len(examples))
	for i, ex := range examples {
		exs[i] = classifier.Example{Body: ex.Body, IsDox: ex.IsDox}
	}
	clf, eval, err := classifier.TrainEval(randutil.Derive(s.rng, "train"), exs, classifier.Options{Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	s.Classifier, s.ClfEval = clf, eval

	// Generate the corpus and stand up the sites. The corpus is retained
	// (strings are shared with the site copies, so this is cheap) for
	// post-study analyses that need ground truth or secondary venues.
	corpus := s.Gen.Corpus()
	s.corpus = corpus
	s.Pastebin = sites.NewPastebin(s.Clock, corpus.Streams[textgen.SitePastebin], sites.DefaultDeletionModel(), cfg.Seed+1)
	s.Fourchan = sites.NewBoardSite(s.Clock, map[string][]textgen.Doc{
		"b":   corpus.Streams[textgen.SiteFourchanB],
		"pol": corpus.Streams[textgen.SiteFourchanPol],
	}, cfg.Seed+2)
	s.Eightch = sites.NewBoardSite(s.Clock, map[string][]textgen.Doc{
		"pol":      corpus.Streams[textgen.SiteEightchPol],
		"baphomet": corpus.Streams[textgen.SiteEightchBapho],
	}, cfg.Seed+3)

	// The OSN universe reacts to doxes when they are *posted*, independent
	// of whether our pipeline finds them: scan ground truth for each
	// victim's first posting and inform the universe.
	s.Universe = osn.NewUniverse(s.Clock, s.World, cfg.Seed+4)
	firstDox := map[int]time.Time{}
	for _, site := range textgen.AllSites() {
		for i := range corpus.Streams[site] {
			doc := &corpus.Streams[site][i]
			if !doc.IsDox() {
				continue
			}
			v := doc.Truth.Victim
			if t, ok := firstDox[v.ID]; !ok || doc.Posted.Before(t) {
				firstDox[v.ID] = doc.Posted
			}
		}
	}
	for _, v := range s.World.Victims {
		t, ok := firstDox[v.ID]
		if !ok {
			continue
		}
		// Fixed network order: RecordDox draws the owner's reaction from
		// the shared universe RNG, so map-order iteration here would make
		// reaction times differ from run to run.
		for _, n := range netid.All() {
			user, ok := v.OSN[n]
			if !ok {
				continue
			}
			ref := netid.Ref{Network: n, Username: user}
			s.Universe.RecordDox(ref, t)
			s.Universe.TriggerAbuse(ref, t)
		}
	}

	// Stand up the simulated services, optionally behind per-service fault
	// injectors. Each injector derives an independent seed from the
	// study-level profile so fault streams don't correlate across sites.
	// The HTTP metrics middleware sits outermost so per-route counters see
	// exactly what the crawlers see, injected faults included.
	reg := cfg.Telemetry.Reg()
	wrap := func(name string, h http.Handler) http.Handler {
		if cfg.Faults != nil {
			in := faults.NewInjector(cfg.Faults.ForService(name), s.Clock, h)
			in.Instrument(reg, name)
			s.Injectors[name] = in
			h = in
		}
		routeOf := telemetry.NormalizePath
		if name == "osn" {
			routeOf = osn.RouteLabel
		}
		return telemetry.HTTPMetrics(reg, name, routeOf, h)
	}
	// The services run in-process: the crawlers and the monitor reach each
	// wrapped handler through localTransport under a fixed host name, and
	// no port is bound (doxsites serves the same handlers over HTTP).
	// Fault keys are path and query, so no result depends on the host.
	lt := &localTransport{handlers: make(map[string]http.Handler, 4)}
	mount := func(name string, h http.Handler) (baseURL string) {
		host := name + ".sim"
		lt.handlers[host] = wrap(name, h)
		return "http://" + host
	}
	pbURL := mount("pastebin", s.Pastebin.Handler())
	fourURL := mount("fourchan", s.Fourchan.Handler())
	eightURL := mount("eightch", s.Eightch.Handler())
	osnURL := mount("osn", s.Universe.Handler())
	opts := cfg.Crawl
	opts.Client = &http.Client{Transport: lt}
	opts.Concurrency = cfg.Parallelism
	opts.Telemetry = reg // site label defaults per constructor
	s.crawlers.pastebin = crawler.NewPastebin(pbURL, opts)
	s.crawlers.boards = []*crawler.Board{
		crawler.NewBoard(fourURL, "b", "4chan/b", opts),
		crawler.NewBoard(fourURL, "pol", "4chan/pol", opts),
		crawler.NewBoard(eightURL, "pol", "8ch/pol", opts),
		crawler.NewBoard(eightURL, "baphomet", "8ch/baphomet", opts),
	}
	mopts := opts
	mopts.TelemetrySite = "monitor"
	s.Monitor = monitor.New(monitor.Config{
		Clock:       s.Clock,
		BaseURL:     osnURL,
		EndAt:       simclock.Period2.End,
		Fetch:       &mopts,
		Parallelism: cfg.Parallelism,
		Telemetry:   reg,
	})
	if sc := cfg.Stream; sc != nil {
		s.fanout = sc.Fanout
	}
	// One table of checkpoint components; snapshot, restore and delta
	// cuts all iterate it (see components.go).
	s.buildComponents()
	// In delta mode every stateful provider journals its mutations so a
	// cut serializes only what changed since the previous one.
	if ck := s.ckpt(); ck != nil && ck.Mode == CheckpointDelta {
		s.deltaMode = true
		s.inChain = make(map[string]bool, len(s.components))
		for _, c := range s.components {
			c.journal()
		}
	}
	return s, nil
}

// FetchStats aggregates the operational counters of every HTTP consumer in
// the study: the five crawlers plus the account monitor.
func (s *Study) FetchStats() crawler.FetchStats {
	agg := s.crawlers.pastebin.Stats()
	for _, b := range s.crawlers.boards {
		agg = agg.Plus(b.Stats())
	}
	return agg.Plus(s.Monitor.FetchStats())
}

// FaultCounters aggregates every injector's tallies; all-zero when fault
// injection is off.
func (s *Study) FaultCounters() faults.Counters {
	var agg faults.Counters
	for _, in := range s.Injectors {
		agg = agg.Plus(in.Counters())
	}
	return agg
}

// Close releases the study. Its simulated services run in-process and
// hold nothing, so Close is a no-op kept for callers that defer it.
func (s *Study) Close() {}

// Run executes the full two-period study. After Resume it continues from
// the restored day boundary instead of the beginning.
func (s *Study) Run(ctx context.Context) error {
	// Register the Instagram control sample at study start (§6.2.1). A
	// resumed run replays the draws — Derive consumed one draw from the
	// study RNG and the stream must stay aligned with an uninterrupted
	// run — but TrackControl is idempotent for already-tracked IDs.
	ctrlRng := randutil.Derive(s.rng, "control")
	maxID := s.Universe.MaxInstagramID()
	for i := 0; i < s.Cfg.ControlSample; i++ {
		s.Monitor.TrackControl(1+ctrlRng.Int63n(maxID), simclock.Period1.Start)
	}

	kind := store.KindRunStart
	if s.resumed {
		kind = store.KindResume
	}
	if err := s.appendLifecycle(kind, s.resumeP, s.resumeDay); err != nil {
		return err
	}

	if !(s.resumed && s.resumeP >= 2) {
		if err := s.runPeriod(ctx, simclock.Period1, 1); err != nil {
			return err
		}
	}
	// Jump the inter-period gap (no collection happened there).
	if s.Clock.Now().Before(simclock.Period2.Start) {
		s.Clock.Set(simclock.Period2.Start)
	}
	return s.runPeriod(ctx, simclock.Period2, 2)
}

// runPeriod advances day by day through one collection period.
func (s *Study) runPeriod(ctx context.Context, p simclock.Period, periodNo int) error {
	day := 0
	if s.resumed && s.resumeP == periodNo {
		// The restored day is fully committed and durable. A snapshot on
		// the period's final day means the whole period is done.
		if !s.Clock.Now().Before(p.End) {
			return nil
		}
		day = s.resumeDay + 1
		s.Clock.Advance(simclock.Day)
	} else if s.Clock.Now().Before(p.Start) {
		s.Clock.Set(p.Start)
	}
	for ; ; day++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.ckpt() != nil {
			s.dayHasher = sha256.New()
		}
		dayCtx, daySpan := s.m.span(ctx, "day")
		daySpan.SetAttr("period", p.Name)
		daySpan.SetAttr("day", strconv.Itoa(day))
		collectStart := time.Now()
		if err := s.collectOnce(dayCtx, p, periodNo); err != nil {
			daySpan.End()
			return err
		}
		s.m.stageEpoch.Observe(time.Since(collectStart).Seconds())
		monStart := time.Now()
		_, monSpan := s.m.span(dayCtx, "monitor")
		if err := s.Monitor.ProcessDue(ctx); err != nil {
			if ctx.Err() != nil {
				monSpan.End()
				daySpan.End()
				return err
			}
			// A degraded sweep: the failed account and everything after
			// it in key order stay due, so the next day's sweep (or the
			// post-outage one) revisits them. Only the observation times
			// shift; no account is dropped.
			s.MonitorFailures++
			s.m.monitorFailures.Inc()
		}
		monSpan.End()
		s.m.stageMonitor.Observe(time.Since(monStart).Seconds())
		// Service-mode janitor tick: expired watchlist entries are purged
		// on the virtual clock, after the day's commits delivered every
		// alert, so the purge is deterministic.
		if s.fanout != nil {
			s.fanout.Janitor()
		}
		daySpan.End()
		s.m.days.Inc()
		s.daysDone++
		s.foldDayDigest()
		endOfPeriod := !s.Clock.Now().Before(p.End)
		if s.Cfg.Progress != nil {
			fmt.Fprintf(s.Cfg.Progress, "%s day %3d: collected=%d flagged=%d unique-doxes=%d\n",
				p.Name, day, s.Collected, s.FlaggedByPeriod[1]+s.FlaggedByPeriod[2], len(s.Doxes))
		}
		// The progress writer above may have called RequestStop (tests use
		// this to cut runs at exact day counts), so read the flag after.
		stopping := s.stopReq.Load()
		if s.ckpt() != nil {
			if err := s.appendDayEntry(periodNo, day); err != nil {
				return err
			}
			if err := s.writeCheckpoint(periodNo, day); err != nil {
				return err
			}
			if stopping {
				if err := s.appendLifecycle(store.KindStop, periodNo, day); err != nil {
					return err
				}
			}
		}
		if stopping {
			return ErrStopped
		}
		if endOfPeriod {
			return nil
		}
		s.Clock.Advance(simclock.Day)
	}
}

// collectOnce is the day loop's collection pass: it polls every source
// and pushes new documents through the pipeline. Boards were only crawled
// in period 2 (§3.1.1). With Parallelism > 1 the five sources are polled
// concurrently.
//
// A poll that still fails after the crawler's full retry budget degrades
// the day instead of aborting the study: the failure is tallied in
// PollFailures and every document the poll did deliver is still processed.
// The crawlers' commit-after-fetch bookkeeping guarantees the documents
// behind the failure stay uncommitted, so a later poll delivers them —
// a fault can delay collection but never lose it. Only context
// cancellation aborts the run.
func (s *Study) collectOnce(ctx context.Context, p simclock.Period, periodNo int) error {
	type source struct {
		name string
		poll func(context.Context) ([]crawler.Doc, error)
	}
	sources := []source{{"pastebin", s.crawlers.pastebin.Poll}}
	if periodNo == 2 {
		for _, bc := range s.crawlers.boards {
			sources = append(sources, source{bc.SiteName, bc.Poll})
		}
	}

	pollStart := time.Now()
	pollCtx, pollSpan := s.m.span(ctx, "poll")
	polled := make([][]crawler.Doc, len(sources))
	errs := make([]error, len(sources))
	polledAt := make([]time.Time, len(sources))
	pollOne := func(i int) {
		_, sp := s.m.span(pollCtx, "poll:"+sources[i].name)
		polled[i], errs[i] = sources[i].poll(ctx)
		polledAt[i] = time.Now()
		sp.SetAttr("docs", strconv.Itoa(len(polled[i])))
		sp.End()
	}
	if s.Cfg.Parallelism <= 1 {
		for i := range sources {
			if err := ctx.Err(); err != nil {
				pollSpan.End()
				return err
			}
			pollOne(i)
		}
	} else {
		parallel.ForEach(len(sources), s.Cfg.Parallelism, pollOne)
	}
	pollSpan.End()
	s.m.stagePoll.Observe(time.Since(pollStart).Seconds())
	// A cancelled day commits nothing, even where every poll finished:
	// a partly polled day must not fold into the run digest.
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, src := range sources {
		s.polledAt[src.name] = polledAt[i]
		if errs[i] != nil {
			s.PollFailures[src.name]++
			s.m.pollFailures.With(src.name).Inc()
		}
	}

	var docs []crawler.Doc
	for _, d := range polled {
		docs = append(docs, d...)
	}
	s.processBatch(ctx, docs, periodNo, p)
	return nil
}

// Prepared is the output of the stateless CPU-hot pipeline stages for one
// document: html→text conversion, TF-IDF transform + classification, and
// (for flagged documents) account extraction and the DoxRecord fields.
type Prepared struct {
	Text       string
	IsDox      bool
	Extraction *extract.Extraction // nil unless IsDox
	Derived    *Derived            // nil unless IsDox
}

// Derived holds the DoxRecord fields prepare computes from a flagged
// document's text: the §3.2 labels, the §4.1 geolocation outcome and a
// digest standing in for the text itself. All three are pure functions of
// the text, so computing them on a worker gives commit the values it
// would compute itself, and fresh and resumed runs agree. Flagged
// documents that turn out to be duplicates (~15% at the default scale)
// compute them for nothing; the rest of the batch carries a nil pointer.
type Derived struct {
	TextDigest string
	Labels     label.Labels
	Geo        GeoOutcome
}

// prepareDoc runs the stateless stages for one document. It only reads
// immutable study state (the fitted classifier), so it is safe to call from
// many goroutines. With telemetry enabled each stage's wall time feeds the
// doxmeter_doc_stage_seconds histogram; the timing branches exist so a
// disabled run does not even read the clock on this hot path.
func (s *Study) prepareDoc(doc *crawler.Doc) Prepared {
	m := s.m
	timed := m != nil && m.enabled
	var t time.Time
	if timed {
		t = time.Now()
	}
	text := doc.Body
	if doc.HTML || htmltext.IsProbablyHTML(text) {
		text = htmltext.Convert(text)
	}
	if timed {
		now := time.Now()
		m.docHTML.Observe(now.Sub(t).Seconds())
		t = now
	}
	pre := Prepared{Text: text}
	// The fused kernel returns margin, token count and verdict in one pass
	// over the text — no sparse vector, no per-token strings (§DESIGN 8).
	var res classifier.Result
	s.Classifier.ScoreInto(text, &res)
	pre.IsDox = res.IsDox
	if timed {
		now := time.Now()
		m.docClassify.Observe(now.Sub(t).Seconds())
		t = now
	}
	if pre.IsDox {
		// The fused extract kernel mirrors the classifier's design: one
		// Aho–Corasick pass over the folded text dispatches to hand-rolled
		// matchers, with scratch pooled across workers (§DESIGN).
		pre.Extraction = extract.ExtractWith(text, s.Cfg.Extract)
		if timed {
			m.docExtract.Observe(time.Since(t).Seconds())
		}
		bp := digestScratch.Get().(*[]byte)
		*bp = append((*bp)[:0], text...)
		sum := sha256.Sum256(*bp)
		digestScratch.Put(bp)
		labels := label.Apply(text)
		pre.Derived = &Derived{
			TextDigest: hex.EncodeToString(sum[:]),
			Labels:     labels,
			Geo:        s.geoOutcome(text, labels, pre.Extraction),
		}
	}
	return pre
}

// digestScratch recycles the text copies prepare hands to sha256 across
// workers: sha256.Sum256([]byte(text)) would allocate a full-text copy per
// flagged document.
var digestScratch = sync.Pool{New: func() any { return new([]byte) }}

// PrepareBatch runs the CPU-hot stages over a batch with at most workers
// goroutines. Exported for the throughput benchmarks; the study itself
// calls it from processBatch. The queue-depth gauge counts down as workers
// finish documents, exposing pool backlog to /metrics mid-day.
func (s *Study) PrepareBatch(docs []crawler.Doc, workers int) []Prepared {
	out := make([]Prepared, len(docs))
	var queue *telemetry.Gauge
	if s.m != nil {
		queue = s.m.queueDepth
	}
	queue.Set(float64(len(docs)))
	parallel.ForEach(len(docs), workers, func(i int) {
		out[i] = s.prepareDoc(&docs[i])
		queue.Add(-1)
	})
	return out
}

// processBatch pushes one day's collected documents through the pipeline:
// a deterministic sort by (Posted, Site, ID), the parallel compute stage,
// and the ordered commit stage that owns all state mutation (counters,
// dedup, dox records, monitor tracking). Because the commit order is a pure
// function of the document set, a Parallelism=N run is bit-identical to a
// Parallelism=1 run for a fixed seed.
func (s *Study) processBatch(ctx context.Context, docs []crawler.Doc, periodNo int, p simclock.Period) {
	sortDocs(docs)
	prepStart := time.Now()
	_, prepSpan := s.m.span(ctx, "prepare")
	prepSpan.SetAttr("docs", strconv.Itoa(len(docs)))
	prepared := s.PrepareBatch(docs, s.Cfg.Parallelism)
	prepSpan.End()
	s.m.stagePrepare.Observe(time.Since(prepStart).Seconds())

	commitStart := time.Now()
	_, commitSpan := s.m.span(ctx, "commit")
	for i := range docs {
		s.commit(&docs[i], prepared[i], periodNo, p)
	}
	commitSpan.End()
	s.m.stageCommit.Observe(time.Since(commitStart).Seconds())
}

// sortDocs puts one day's batch into the canonical (Posted, Site, ID)
// commit order. The order is a pure function of the document set, which
// is what makes results independent of Parallelism.
func sortDocs(docs []crawler.Doc) {
	sort.Slice(docs, func(i, j int) bool {
		if !docs[i].Posted.Equal(docs[j].Posted) {
			return docs[i].Posted.Before(docs[j].Posted)
		}
		if docs[i].Site != docs[j].Site {
			return docs[i].Site < docs[j].Site
		}
		return docs[i].ID < docs[j].ID
	})
}

// commit applies one prepared document to the study state. Runs only on the
// driver goroutine, in batch order.
func (s *Study) commit(doc *crawler.Doc, pre Prepared, periodNo int, p simclock.Period) {
	if s.dayHasher != nil {
		// Fold the document's identity and verdict into the day digest.
		// The commit order is deterministic, so so is the digest.
		io.WriteString(s.dayHasher, doc.Site)
		io.WriteString(s.dayHasher, "/")
		io.WriteString(s.dayHasher, doc.ID)
		if pre.IsDox {
			io.WriteString(s.dayHasher, "+")
		} else {
			io.WriteString(s.dayHasher, ".")
		}
	}
	s.Collected++
	s.CollectedBySite[doc.Site]++
	s.m.collected.With(doc.Site).Inc()
	var siteID string // site/id key, materialized at most once per commit
	if s.CollectedIDs != nil {
		// Build the key in scratch and only materialize a string for
		// first-time entries: a re-crawled document maps to the Posted
		// value it already has, so the repeat assignment is skipped
		// rather than re-allocating its key.
		s.keyScratch = append(append(append(s.keyScratch[:0], doc.Site...), '/'), doc.ID...)
		if _, ok := s.CollectedIDs[string(s.keyScratch)]; !ok {
			siteID = string(s.keyScratch)
			if s.deltaMode {
				s.addedCollectedIDs = append(s.addedCollectedIDs, siteID)
			}
			s.CollectedIDs[siteID] = doc.Posted
		}
	}
	if periodNo == 1 && doc.Site == "pastebin" {
		s.pastebinP1Docs = append(s.pastebinP1Docs, crawler.Doc{Site: doc.Site, ID: doc.ID, Posted: doc.Posted})
	}
	if !pre.IsDox {
		return
	}
	s.FlaggedByPeriod[periodNo]++
	s.m.flagged.With(strconv.Itoa(periodNo)).Inc()
	if periodNo == 1 && doc.Site == "pastebin" && !s.flaggedP1[doc.ID] {
		s.flaggedP1[doc.ID] = true
		if s.deltaMode {
			s.addedFlaggedP1 = append(s.addedFlaggedP1, doc.ID)
		}
	}
	if siteID == "" {
		siteID = doc.Site + "/" + doc.ID
	}
	verdict, _ := s.Deduper.Check(siteID, pre.Text, pre.Extraction.AccountSetKey())
	if verdict != dedup.Unique {
		s.m.duplicates.With(verdict.String()).Inc()
		return
	}
	s.m.doxes.Inc()
	rec := &DoxRecord{
		DocID:      doc.ID,
		Site:       doc.Site,
		Posted:     doc.Posted,
		Period:     periodNo,
		Text:       pre.Text,
		Extraction: pre.Extraction,
		TextDigest: pre.Derived.TextDigest,
		Labels:     pre.Derived.Labels,
		Geo:        pre.Derived.Geo,
	}
	s.Doxes = append(s.Doxes, rec)
	// Monitor the referenced accounts on the four tracked networks,
	// starting now (when we observed the dox) until the period ends.
	now := s.Clock.Now()
	for _, n := range netid.Monitored() {
		if user, ok := pre.Extraction.Accounts[n]; ok {
			s.Monitor.TrackUntil(netid.Ref{Network: n, Username: user}, now, p.End)
		}
	}
	// Service mode: hand the detection to the alert fan-out here, on the
	// driver goroutine in commit order, so service state is a pure
	// function of the document schedule and settled before the day's
	// janitor tick and checkpoint cut. Restored records never replay
	// through here; services restore from their own checkpoint
	// components instead.
	if s.fanout != nil {
		s.fanout.Deliver(s.detectionOf(rec))
		s.m.alertLatency.Observe(time.Since(s.polledAt[doc.Site]).Seconds())
	}
}

// detectionOf projects a freshly committed DoxRecord into the fan-out
// event the §7 services consume. Uses the raw text (present only at
// commit time) for the watchlist's address line.
func (s *Study) detectionOf(rec *DoxRecord) stream.Detection {
	d := stream.Detection{
		Site:       rec.Site,
		DocID:      rec.DocID,
		SeenAt:     s.Clock.Now(),
		Extraction: rec.Extraction,
	}
	if rec.Labels.Address {
		d.AddressLine = stream.AddressLine(rec.Text)
	}
	return d
}
