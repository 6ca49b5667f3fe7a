package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"doxmeter/internal/core"
	"doxmeter/internal/feed"
	"doxmeter/internal/netid"
	"doxmeter/internal/notify"
	"doxmeter/internal/simclock"
	"doxmeter/internal/store"
	"doxmeter/internal/stream"
	"doxmeter/internal/telemetry"
	"doxmeter/internal/watchlist"
)

// workload is one set of inputs. The program receives only the
// core.StudyConfig built from it; everything else here is the benchmark's
// own instrumentation and grading.
type workload struct {
	name  string
	scale float64
	// control is StudyConfig.ControlSample; 0 keeps the scaled default.
	control int
	// service runs the §7 always-on service: stream engine, alert
	// fan-out, daily delta checkpoints into a file store, then Resume.
	service bool
	// Floors on detected-dox precision and victim recall against the
	// corpus ground truth. Over seeds 1–20 of the commit that introduced
	// the benchmark the lowest values were 0.72 and 0.64 at scale 0.05,
	// 0.70 and 0.59 at scale 0.01; the floors leave room for other seeds.
	precisionFloor, recallFloor float64
}

var workloads = map[string]workload{
	"study":    {name: "study", scale: 0.05, precisionFloor: 0.6, recallFloor: 0.5},
	"service":  {name: "service", scale: 0.05, service: true, precisionFloor: 0.6, recallFloor: 0.5},
	"tracking": {name: "tracking", scale: 0.01, control: 13392, precisionFloor: 0.55, recallFloor: 0.4},
}

// parallelism is the Parallelism every workload runs at: the two cores of
// the machine the benchmark was sized on. The traced pass also runs 1.
const parallelism = 2

// repResult is what one rep reports to the parent process, as one JSON line.
type repResult struct {
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	ResumeS   float64 `json:"resume_s"`
	Collected int     `json:"collected"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Allocation ledger of Run, as exact counts.
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCCPU      float64 `json:"gc_cpu_fraction"`
	// AlertMS holds one latency per unique dox: from the start of its
	// virtual day to its arrival at the consumer.
	AlertMS   []float64 `json:"alert_ms"`
	Digest    string    `json:"digest"`
	Precision float64   `json:"precision"`
	Recall    float64   `json:"recall"`
	// Operations attempted and failed: fetch requests, polls, monitor
	// sweeps and, in the service workload, alerts.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Problems lists every output check the rep failed.
	Problems []string `json:"problems,omitempty"`
	// Layers is the per-layer ledger; traced reps only.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Replay holds the kernel replay's exact allocation counts.
	Replay []replayPass `json:"replay,omitempty"`
}

// replayPass is one kernel's pass over the replayed documents.
type replayPass struct {
	Kernel  string `json:"kernel"`
	Docs    int    `json:"docs"`
	Mallocs uint64 `json:"mallocs"`
}

func (r *repResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// dayLog is the study's Progress writer. The study writes one line at the
// end of every virtual day, on the goroutine that called Run, so reading
// the study's exported state from Write is race-free.
type dayLog struct {
	study *core.Study
	ends  []dayEnd
}

type dayEnd struct {
	wall    time.Time // the day's stages (commit, sweep) are done
	virtual time.Time // the day's virtual time, as stamped on its alerts
	doxes   int       // len(Study.Doxes) at the end of the day
}

func (d *dayLog) Write(p []byte) (int, error) {
	d.ends = append(d.ends, dayEnd{wall: time.Now(), virtual: d.study.Clock.Now(), doxes: len(d.study.Doxes)})
	return len(p), nil
}

// timedStore is the service workload's file store behind a timing
// wrapper. The study calls it only from the goroutine that called Run or
// Resume.
type timedStore struct {
	*store.File
	writeS  float64     // SaveSnapshot + SaveDelta + AppendEntry
	fullMS  []float64   // per full-snapshot write
	deltaMS []float64   // per delta write
	bytes   int64       // encoded checkpoint bytes
	cutEnds []time.Time // return of each cut's commit-log entry
	loadS   float64     // LoadChain + Entries, the reads Resume makes
}

func (t *timedStore) SaveSnapshot(s *store.Snapshot) (int, error) {
	start := time.Now()
	n, err := t.File.SaveSnapshot(s)
	d := time.Since(start)
	t.writeS += d.Seconds()
	t.fullMS = append(t.fullMS, ms(d))
	t.bytes += int64(n)
	return n, err
}

func (t *timedStore) SaveDelta(dl *store.Delta) (int, error) {
	start := time.Now()
	n, err := t.File.SaveDelta(dl)
	d := time.Since(start)
	t.writeS += d.Seconds()
	t.deltaMS = append(t.deltaMS, ms(d))
	t.bytes += int64(n)
	return n, err
}

// AppendEntry marks the end of a cut: the study logs each snapshot or
// delta right after writing it, and that log entry is the last thing the
// study does on a virtual day.
func (t *timedStore) AppendEntry(e store.Entry) error {
	start := time.Now()
	err := t.File.AppendEntry(e)
	end := time.Now()
	t.writeS += end.Sub(start).Seconds()
	if e.Kind == store.KindSnapshot || e.Kind == store.KindDelta {
		t.cutEnds = append(t.cutEnds, end)
	}
	return err
}

func (t *timedStore) LoadChain() (*store.Snapshot, []*store.Delta, error) {
	start := time.Now()
	defer func() { t.loadS += time.Since(start).Seconds() }()
	return t.File.LoadChain()
}

func (t *timedStore) Entries() ([]store.Entry, error) {
	start := time.Now()
	defer func() { t.loadS += time.Since(start).Seconds() }()
	return t.File.Entries()
}

// services is the §7 service set the service workload fans out into.
type services struct {
	notify *notify.Service
	wl     *watchlist.Watchlist
	feed   *feed.Log
}

// newServices builds a fresh service set. The watchlist reads the virtual
// clock of whichever study *study points at when it is asked.
func newServices(study **core.Study) *services {
	return &services{
		notify: notify.NewService("perfbench-salt"),
		wl:     watchlist.New(0, func() time.Time { return (*study).Clock.Now() }),
		feed:   feed.NewLog(),
	}
}

func (sv *services) fanout() *stream.Fanout {
	return &stream.Fanout{Notify: sv.notify, Watchlist: sv.wl, Feed: sv.feed}
}

// subscribeVictims registers every victim's email, phone and accounts
// with the notification service before Run, as the victims of §7.1 would.
func (sv *services) subscribeVictims(s *core.Study) {
	for _, v := range s.World.Victims {
		id := "victim-" + strconv.Itoa(v.ID)
		sv.notify.Subscribe(id, notify.KindEmail, v.Email)
		sv.notify.Subscribe(id, notify.KindPhone, v.Phone)
		for _, n := range netid.All() {
			if user, ok := v.OSN[n]; ok {
				sv.notify.SubscribeAccount(id, netid.Ref{Network: n, Username: user})
			}
		}
	}
}

// arrival is one feed event as the subscriber received it.
type arrival struct {
	url    string
	seenAt time.Time
	at     time.Time
}

// subscriber is one threat-exchange consumer long-polling the feed over
// loopback HTTP; it stamps each event when its line is decoded.
type subscriber struct {
	srv    *http.Server
	served chan struct{} // closed when Serve returns
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error // the consumer's result

	mu  sync.Mutex
	got []arrival
}

// startSubscriber serves log on a loopback port and starts one consumer.
// Stop it with stop.
func startSubscriber(log *feed.Log) (*subscriber, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("feed listener: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscriber{
		srv:    &http.Server{Handler: log.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() {
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after stop
		close(s.served)
	}()
	go func() { s.done <- s.poll(ctx) }()
	return s, nil
}

func (s *subscriber) poll(ctx context.Context) error {
	cursor := int64(0)
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			s.base+"/events?wait=2s&cursor="+strconv.FormatInt(cursor, 10), nil)
		if err != nil {
			return err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("feed long-poll: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("feed long-poll: status %s", resp.Status)
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var e feed.Event
			if err := dec.Decode(&e); err != nil {
				resp.Body.Close()
				if errors.Is(err, io.EOF) || ctx.Err() != nil {
					break
				}
				return fmt.Errorf("feed event: %w", err)
			}
			now := time.Now()
			s.mu.Lock()
			s.got = append(s.got, arrival{url: e.URL, seenAt: e.SeenAt, at: now})
			s.mu.Unlock()
			cursor = e.Seq
		}
	}
	return nil
}

func (s *subscriber) received() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

// stop waits up to grace for want events, then stops the consumer and
// the server and returns what arrived.
func (s *subscriber) stop(want int, grace time.Duration) ([]arrival, error) {
	deadline := time.Now().Add(grace)
	for s.received() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.cancel()
	err := <-s.done
	_ = s.srv.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.got, err
}

// repOptions selects what one rep does beyond the untraced workload.
type repOptions struct {
	parallelism int
	// hub, when set, is attached as StudyConfig.Telemetry (traced reps).
	hub *telemetry.Hub
	// dir is a fresh scratch directory for checkpoint state.
	dir string
}

// rep is one execution of a workload: NewStudy, Run, output checks and a
// Resume of the finished state on a fresh study.
type rep struct {
	w     workload
	seed  int64
	opt   repOptions
	res   repResult
	study *core.Study
	days  *dayLog
	svc   *services
	store *timedStore
	sub   *subscriber
	// runStart and runEnd bracket Study.Run.
	runStart, runEnd time.Time
	arrivals         []arrival
}

func (r *rep) config(svc *services, st store.Store) core.StudyConfig {
	cfg := core.StudyConfig{
		Seed:          r.seed,
		Scale:         r.w.scale,
		ControlSample: r.w.control,
		Parallelism:   r.opt.parallelism,
		Telemetry:     r.opt.hub,
	}
	if svc != nil {
		cfg.Stream = &core.StreamConfig{Fanout: svc.fanout()}
	}
	if st != nil {
		cfg.Checkpoint = &core.CheckpointConfig{Store: st, Mode: core.CheckpointDelta}
	}
	return cfg
}

// runRep runs NewStudy and Run for one rep of w and checks the outputs.
// The caller ends the rep with finish; on error the rep is already
// released.
func runRep(w workload, seed int64, opt repOptions) (r *rep, err error) {
	r = &rep{w: w, seed: seed, opt: opt}
	defer func() {
		if err != nil {
			r.release()
		}
	}()
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	var st store.Store
	if w.service {
		f, err := store.OpenFile(filepath.Join(opt.dir, "state"))
		if err != nil {
			return nil, err
		}
		r.store = &timedStore{File: f}
		st = r.store
		r.svc = newServices(&r.study)
	}
	cfg := r.config(r.svc, st)
	r.days = &dayLog{}
	cfg.Progress = r.days

	runtime.GC()
	start := time.Now()
	r.study, err = core.NewStudy(cfg)
	r.res.SetupS = time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("NewStudy: %w", err)
	}
	study := r.study
	r.days.study = study
	if w.service {
		r.svc.subscribeVictims(study)
		if r.sub, err = startSubscriber(r.svc.feed); err != nil {
			return nil, err
		}
	}

	// Collect setup's garbage before each timed region, so that no timer
	// pays for a collection the work before it caused.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPU()
	r.runStart = time.Now()
	err = study.Run(context.Background())
	r.runEnd = time.Now()
	cpu1 := readCPU()
	runtime.ReadMemStats(&m1)
	r.res.PeakRSSMB = peakRSSMB()
	if r.sub != nil {
		// The alert worker drains before the last day ends, so every
		// event is already in the feed; the grace covers loopback only.
		arrivals, subErr := r.sub.stop(int(r.svc.feed.LastSeq()), 10*time.Second)
		r.arrivals = arrivals
		if subErr != nil && err == nil {
			err = subErr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("Run: %w", err)
	}
	r.res.RunS = r.runEnd.Sub(r.runStart).Seconds()
	r.res.Collected = study.Collected
	r.res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.res.Mallocs = m1.Mallocs - m0.Mallocs
	if total := cpu1.total - cpu0.total; total > 0 {
		r.res.GCCPU = (cpu1.gc - cpu0.gc) / total
	}
	r.check()
	return r, nil
}

// finish resumes the finished state on samples fresh studies, then
// releases the rep.
func (r *rep) finish(samples int) error {
	err := r.resume(samples)
	r.release()
	return err
}

// release closes the study and the store and removes the scratch
// directory. Every commit-log append was already synced, so the store's
// Close error carries nothing the rep needs.
func (r *rep) release() {
	if r.study != nil {
		r.study.Close()
		r.study = nil
	}
	if r.store != nil {
		_ = r.store.Close()
	}
	os.RemoveAll(r.opt.dir)
}

// resumeSamples is how many fresh studies a traced rep resumes. Resume is
// short enough that host noise moves a single timing by a fifth, so the
// ledger reports the median of several. An end-to-end rep resumes once,
// to check the resumed state.
const resumeSamples = 5

// resume times Study.Resume over the finished run's checkpoint state on
// samples fresh studies and checks that the first holds the run's
// results. The service workload resumes the delta chain its Run wrote. The batch workloads
// write no checkpoints during Run, so their final state is saved once,
// after Run, as one full snapshot, and resumed from that.
func (r *rep) resume(samples int) error {
	var st *timedStore
	if r.store != nil {
		st = r.store
	} else {
		f, err := store.OpenFile(filepath.Join(r.opt.dir, "final"))
		if err != nil {
			return err
		}
		defer f.Close()
		period, day := position(r.study.Clock.Now())
		snap, err := r.study.Snapshot(period, day)
		if err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		if _, err := f.SaveSnapshot(snap); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		st = &timedStore{File: f}
	}
	runDigest := r.study.RunDigest()
	r.study.Close()
	r.study = nil

	var total, load []float64
	for i := 0; i < samples; i++ {
		t, l, err := r.resumeOnce(st, i == 0, runDigest)
		if err != nil {
			return err
		}
		total, load = append(total, t), append(load, l)
	}
	r.res.ResumeS = median(total)
	if r.res.Layers != nil {
		restore := make([]float64, len(total))
		for i := range total {
			restore[i] = total[i] - load[i]
		}
		r.res.Layers["core.resume_s"] = r.res.ResumeS
		r.res.Layers["store.load_s"] = median(load)
		r.res.Layers["store.restore_s"] = median(restore)
	}
	return nil
}

// resumeOnce builds a fresh study over st and times its Resume, returning
// the whole call and the part spent in the store's reads. With check set
// it also compares the resumed study with the run.
func (r *rep) resumeOnce(st *timedStore, check bool, runDigest string) (total, load float64, err error) {
	var resumed *core.Study
	var svc *services
	if r.w.service {
		svc = newServices(&resumed)
	}
	cfg := r.config(svc, st)
	cfg.Telemetry = nil
	runtime.GC()
	if resumed, err = core.NewStudy(cfg); err != nil {
		return 0, 0, fmt.Errorf("NewStudy for resume: %w", err)
	}
	defer resumed.Close()
	loaded := st.loadS
	runtime.GC()
	start := time.Now()
	info, err := resumed.Resume()
	total, load = time.Since(start).Seconds(), st.loadS-loaded
	if err != nil {
		return 0, 0, fmt.Errorf("Resume: %w", err)
	}
	if !check {
		return total, load, nil
	}
	switch {
	case !info.Resumed:
		r.res.problem("resume found no checkpoint")
	case resumed.RunDigest() != runDigest:
		r.res.problem("RunDigest after Resume %s, run %s", resumed.RunDigest(), runDigest)
	case resultDigest(resumed) != r.res.Digest:
		r.res.problem("results digest after Resume differs from the run's")
	}
	return total, load, nil
}

// position is the (period, day) of a virtual time, as the study numbers
// its days.
func position(t time.Time) (int, int) {
	p, n := simclock.Period1, 1
	if !t.Before(simclock.Period2.Start) {
		p, n = simclock.Period2, 2
	}
	return n, int(t.Sub(p.Start) / simclock.Day)
}

// check grades the rep's outputs and fills the alert latencies and the
// operation counts.
func (r *rep) check() {
	s := r.study
	r.res.Digest = resultDigest(s)
	var err error
	r.res.Precision, r.res.Recall, err = grade(s)
	if err != nil {
		r.res.problem("grading: %v", err)
	} else {
		if r.res.Precision < r.w.precisionFloor {
			r.res.problem("precision %.4f below floor %.2f", r.res.Precision, r.w.precisionFloor)
		}
		if r.res.Recall < r.w.recallFloor {
			r.res.problem("victim recall %.4f below floor %.2f", r.res.Recall, r.w.recallFloor)
		}
	}

	fs := s.FetchStats()
	r.res.Attempted, r.res.Failed = fs.Requests, fs.Errors
	for _, d := range r.days.ends {
		if p, _ := position(d.virtual); p == 2 {
			r.res.Attempted += 1 + int64(len(s.Fourchan.Boards())+len(s.Eightch.Boards()))
		} else {
			r.res.Attempted++
		}
	}
	for _, n := range s.PollFailures {
		r.res.Failed += int64(n)
	}
	r.res.Attempted += int64(len(r.days.ends)) // one monitor sweep per day
	r.res.Failed += int64(s.MonitorFailures)

	if r.w.service {
		r.serviceAlerts()
	} else {
		r.batchAlerts()
	}
}

// batchAlerts: a batch study exposes a day's records only when the day
// ends, so each unique dox's latency is the wall time of its whole day.
// Day 0 starts at Run; day k starts when day k-1 ends.
func (r *rep) batchAlerts() {
	prevWall, prevDoxes := r.runStart, 0
	for _, d := range r.days.ends {
		lat := ms(d.wall.Sub(prevWall))
		for i := prevDoxes; i < d.doxes; i++ {
			r.res.AlertMS = append(r.res.AlertMS, lat)
		}
		prevWall, prevDoxes = d.wall, d.doxes
	}
}

// serviceAlerts: each unique dox must reach the subscriber exactly once;
// its latency runs from the start of its virtual day (Run for day 0, the
// return of the previous day's cut otherwise) to its arrival.
func (r *rep) serviceAlerts() {
	s := r.study
	r.res.Attempted += int64(len(s.Doxes))
	if len(r.store.cutEnds) != len(r.days.ends) {
		r.res.problem("%d checkpoint cuts for %d days", len(r.store.cutEnds), len(r.days.ends))
		r.res.Failed += int64(len(s.Doxes))
		return
	}
	dayStart := make(map[int64]time.Time, len(r.days.ends)) // by virtual time
	for k, d := range r.days.ends {
		start := r.runStart
		if k > 0 {
			start = r.store.cutEnds[k-1]
		}
		dayStart[d.virtual.UnixNano()] = start
	}
	seen := make(map[string]int, len(r.arrivals))
	for _, a := range r.arrivals {
		seen[a.url]++
		if start, ok := dayStart[a.seenAt.UnixNano()]; ok && seen[a.url] == 1 {
			r.res.AlertMS = append(r.res.AlertMS, ms(a.at.Sub(start)))
		}
	}
	missing := 0
	for _, d := range s.Doxes {
		if n := seen[feed.URLFor(d.Site, d.DocID)]; n != 1 {
			missing++
			if n > 1 {
				r.res.problem("dox %s/%s reached the subscriber %d times", d.Site, d.DocID, n)
			}
		}
	}
	if missing > 0 {
		r.res.problem("%d of %d unique doxes did not reach the subscriber exactly once", missing, len(s.Doxes))
	}
	if len(r.arrivals) != len(s.Doxes) {
		r.res.problem("subscriber received %d events for %d unique doxes", len(r.arrivals), len(s.Doxes))
	}
	if len(r.res.AlertMS) != len(s.Doxes)-missing {
		r.res.problem("%d alerts could not be placed on a virtual day", len(s.Doxes)-missing-len(r.res.AlertMS))
	}
	r.res.Failed += int64(missing)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

type cpuSample struct{ gc, total float64 }

// readCPU samples the runtime's GC and total CPU-seconds estimates.
func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}
