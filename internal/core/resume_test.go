package core_test

// Kill-and-resume suite: a durable study cut at arbitrary points — mid
// period, exactly at the period boundary, mid monitor sweep via a hard
// context kill — must, after resuming, be bit-identical to an
// uninterrupted run: same funnel, same dox records, same monitor
// histories, same rendered tables. Exercised at Parallelism 1 and 0
// (GOMAXPROCS), with and without mild fault injection, against both
// store backends. The file-backed variant additionally proves the §3.3
// discipline: no raw PII ever reaches the state dir.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"doxmeter/internal/core"
	"doxmeter/internal/crawler"
	"doxmeter/internal/experiments"
	"doxmeter/internal/faults"
	"doxmeter/internal/leakcheck"
	"doxmeter/internal/store"
)

const (
	resumeSeed  = 23
	resumeScale = 0.004
	resumeCtrl  = 300
	// Study days per period at any scale: pre-filter 0..42, post 0..49.
	p1Days    = 43
	totalDays = 93
)

func resumeCfg(parallelism int, mild bool) core.StudyConfig {
	cfg := core.StudyConfig{
		Seed: resumeSeed, Scale: resumeScale, ControlSample: resumeCtrl,
		Parallelism: parallelism,
	}
	// Wall-clock delays never change the virtual-time results; tighten
	// them so the fault-injected chains don't dominate the suite (same
	// idiom as the chaos soak: keep the probabilities, shrink the clocks).
	cfg.Crawl = crawler.Options{Backoff: 2 * time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	if mild {
		profile, err := faults.Preset("mild", resumeSeed+5)
		if err != nil {
			panic(err)
		}
		profile.RetryAfter = 5 * time.Millisecond
		profile.StallFor = 5 * time.Millisecond
		cfg.Faults = profile
	}
	return cfg
}

// baseline is an uninterrupted, non-durable reference run plus its
// rendered analyses. Tables are rendered exactly once because LabelSample
// and ValidateGeo derive from the study RNG: rendering is part of the
// deterministic post-run sequence, not idempotent.
type baseline struct {
	s      *core.Study
	tables map[string]string
	err    error
}

var (
	baseOffOnce, baseMildOnce sync.Once
	baseOff, baseMild         baseline
)

func runBaseline(mild bool) baseline {
	s, err := core.NewStudy(resumeCfg(1, mild))
	if err != nil {
		return baseline{err: err}
	}
	if err := s.Run(context.Background()); err != nil {
		s.Close()
		return baseline{err: err}
	}
	s.Close()
	return baseline{s: s, tables: renderAnalyses(s)}
}

func getBaseline(t *testing.T, mild bool) baseline {
	t.Helper()
	if mild {
		baseMildOnce.Do(func() { baseMild = runBaseline(true) })
		if baseMild.err != nil {
			t.Fatal(baseMild.err)
		}
		return baseMild
	}
	baseOffOnce.Do(func() { baseOff = runBaseline(false) })
	if baseOff.err != nil {
		t.Fatal(baseOff.err)
	}
	return baseOff
}

// renderAnalyses runs every post-study analysis that feeds the paper's
// tables. Call exactly once per study, in this fixed order (RNG-deriving
// analyses are order-sensitive).
func renderAnalyses(s *core.Study) map[string]string {
	out := map[string]string{
		"figure1": experiments.Figure1(s).String(),
		"table3":  experiments.Table3(s).String(),
		"table4":  experiments.Table4(s).String(), // derives "labeling"
		"table9":  experiments.Table9(s).String(),
		"table10": experiments.Table10(s).String(),
	}
	out["geo"] = fmt.Sprintf("%+v", s.ValidateGeo(50)) // derives "geovalidation"
	return out
}

// stopAfter requests a clean stop once the study has printed `days`
// progress lines (one per processed day) in this process.
type stopAfter struct {
	s    *core.Study
	days int
	seen int
}

func (w *stopAfter) Write(p []byte) (int, error) {
	w.seen++
	if w.seen == w.days {
		w.s.RequestStop()
	}
	return len(p), nil
}

func newDurableStudy(t *testing.T, cfg core.StudyConfig, st store.Store) *core.Study {
	t.Helper()
	return newDurableStudyCkpt(t, cfg, &core.CheckpointConfig{Store: st})
}

func newDurableStudyCkpt(t *testing.T, cfg core.StudyConfig, ck *core.CheckpointConfig) *core.Study {
	t.Helper()
	cp := *ck
	cfg.Checkpoint = &cp
	s, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runChain executes a durable study in legs: each cut is an absolute
// study-day count at which the leg requests a clean stop; the final leg
// runs to completion. Returns the completed study.
func runChain(t *testing.T, cfg core.StudyConfig, st store.Store, cuts []int) *core.Study {
	t.Helper()
	return runChainCkpt(t, cfg, &core.CheckpointConfig{Store: st}, cuts)
}

// runChainCkpt is runChain with an explicit checkpoint mode, shared with
// the delta-mode suite.
func runChainCkpt(t *testing.T, cfg core.StudyConfig, ck *core.CheckpointConfig, cuts []int) *core.Study {
	t.Helper()
	prev := 0
	for _, cut := range cuts {
		s := newDurableStudyCkpt(t, cfg, ck)
		info, err := s.Resume()
		if err != nil {
			t.Fatal(err)
		}
		if (prev > 0) != info.Resumed {
			t.Fatalf("leg to day %d: resume info %+v after %d days", cut, info, prev)
		}
		s.Cfg.Progress = &stopAfter{s: s, days: cut - prev}
		err = s.Run(context.Background())
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("leg to day %d: Run = %v, want ErrStopped", cut, err)
		}
		if s.CheckpointsWritten == 0 {
			t.Fatalf("leg to day %d wrote no checkpoints", cut)
		}
		s.Close()
		prev = cut
	}
	s := newDurableStudyCkpt(t, cfg, ck)
	info, err := s.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed {
		t.Fatal("final leg found no checkpoint")
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("final leg: %v", err)
	}
	s.Close()
	return s
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareStudies asserts got reproduces want bit for bit: funnel counts,
// dedup verdicts, dox records (by digest/labels/geo/accounts — got may
// have been resumed and so holds no raw text), monitor histories, and the
// rendered tables.
func compareStudies(t *testing.T, want, got *core.Study, wantTables, gotTables map[string]string) {
	t.Helper()
	if want.Collected != got.Collected {
		t.Errorf("Collected: want %d, got %d", want.Collected, got.Collected)
	}
	if !reflect.DeepEqual(want.CollectedBySite, got.CollectedBySite) {
		t.Errorf("CollectedBySite: want %v, got %v", want.CollectedBySite, got.CollectedBySite)
	}
	if want.FlaggedByPeriod != got.FlaggedByPeriod {
		t.Errorf("FlaggedByPeriod: want %v, got %v", want.FlaggedByPeriod, got.FlaggedByPeriod)
	}
	if want.Deduper.Stats() != got.Deduper.Stats() {
		t.Errorf("dedup stats: want %+v, got %+v", want.Deduper.Stats(), got.Deduper.Stats())
	}
	if len(want.Doxes) != len(got.Doxes) {
		t.Fatalf("Doxes: want %d, got %d", len(want.Doxes), len(got.Doxes))
	}
	for i := range want.Doxes {
		a, b := want.Doxes[i], got.Doxes[i]
		if a.DocID != b.DocID || a.Site != b.Site || !a.Posted.Equal(b.Posted) ||
			a.Period != b.Period || a.TextDigest != b.TextDigest ||
			a.Labels != b.Labels || a.Geo != b.Geo {
			t.Fatalf("dox %d diverged:\nwant %s/%s digest=%s labels=%+v geo=%d\ngot  %s/%s digest=%s labels=%+v geo=%d",
				i, a.Site, a.DocID, a.TextDigest, a.Labels, a.Geo,
				b.Site, b.DocID, b.TextDigest, b.Labels, b.Geo)
		}
		if len(a.Extraction.Accounts) != len(b.Extraction.Accounts) {
			t.Fatalf("dox %d accounts: want %v, got %v", i, a.Extraction.Accounts, b.Extraction.Accounts)
		}
		for n, u := range a.Extraction.Accounts {
			if b.Extraction.Accounts[n] != u {
				t.Fatalf("dox %d account %v: want %q, got %q", i, n, u, b.Extraction.Accounts[n])
			}
		}
		if !eqStrings(a.Extraction.CreditAliases, b.Extraction.CreditAliases) ||
			!eqStrings(a.Extraction.CreditHandles, b.Extraction.CreditHandles) {
			t.Fatalf("dox %d credits diverged", i)
		}
	}
	wh, gh := want.Monitor.Histories(), got.Monitor.Histories()
	if len(wh) != len(gh) {
		t.Fatalf("monitor histories: want %d, got %d", len(wh), len(gh))
	}
	for i := range wh {
		a, b := wh[i], gh[i]
		if a.Ref != b.Ref || a.NumericID != b.NumericID || a.Control != b.Control ||
			!a.DoxSeenAt.Equal(b.DoxSeenAt) || a.Verified != b.Verified ||
			a.Activity != b.Activity || !reflect.DeepEqual(a.Obs, b.Obs) {
			t.Fatalf("history %v diverged:\nwant %+v\ngot  %+v", a.Ref, a, b)
		}
	}
	for name, w := range wantTables {
		if g := gotTables[name]; g != w {
			t.Errorf("%s diverged:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", name, w, g)
		}
	}
}

// TestResumeBitIdentical is the durability core guarantee: kill a durable
// study at any day boundary — including exactly at the period boundary —
// any number of times, and the resumed completion is bit-identical to an
// uninterrupted run, at Parallelism 1 and 0, with and without faults.
func TestResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name        string
		parallelism int
		mild        bool
		cuts        []int // absolute study-day counts; p1Days cuts at the period boundary
	}{
		{"par1", 1, false, []int{10, p1Days, 60}},
		{"par0-faults", 0, true, []int{10, p1Days, 60}},
		{"par0", 0, false, []int{25}},
		{"par1-faults", 1, true, []int{25}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := getBaseline(t, tc.mild)
			s := runChain(t, resumeCfg(tc.parallelism, tc.mild), store.NewMem(), tc.cuts)
			compareStudies(t, base.s, s, base.tables, renderAnalyses(s))
		})
	}
}

// TestResumeAfterHardKill cancels the run's context at arbitrary wall
// times — landing mid poll, mid monitor sweep, wherever — then resumes
// from the last durable day boundary. Whatever was in flight at the kill
// is re-collected; the completed study matches the uninterrupted one.
func TestResumeAfterHardKill(t *testing.T) {
	t.Parallel()
	base := getBaseline(t, false)
	mem := store.NewMem()
	cfg := resumeCfg(1, false)

	var final *core.Study
	for _, timeout := range []time.Duration{250 * time.Millisecond, 600 * time.Millisecond, 1200 * time.Millisecond} {
		s := newDurableStudy(t, cfg, mem)
		if _, err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := s.Run(ctx)
		cancel()
		s.Close()
		if err == nil {
			final = s
			break
		}
	}
	if final == nil {
		s := newDurableStudy(t, cfg, mem)
		if _, err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		s.Close()
		final = s
	}
	compareStudies(t, base.s, final, base.tables, renderAnalyses(final))
}

// TestFileStoreDurableRun runs a complete durable study against the
// file-backed store, proves durable ≡ non-durable, then scans every byte
// the store wrote for planted PII: victim full names, emails, phone
// numbers, IPs, and raw dox text lines must never reach disk. OSN
// usernames are deliberately not scanned for — they are the paper's §3.3
// storage exception.
func TestFileStoreDurableRun(t *testing.T) {
	t.Parallel()
	base := getBaseline(t, false)
	dir := t.TempDir()
	fileStore, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newDurableStudy(t, resumeCfg(1, false), fileStore)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	compareStudies(t, base.s, s, base.tables, renderAnalyses(s))
	if err := fileStore.Close(); err != nil {
		t.Fatal(err)
	}

	scanStateDirForPlants(t, dir, s)
}

// scanStateDirForPlants reads every byte the store wrote under dir —
// full snapshots, delta files, commit log — and asserts none of the
// planted PII (victim names, emails, phones, IPs, raw dox text lines)
// made it to disk. The study must have run in-process (uninterrupted) so
// its DoxRecords still hold the raw text to plant-check against.
func scanStateDirForPlants(t *testing.T, dir string, s *core.Study) {
	t.Helper()
	var blob []byte
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		blob = append(blob, b...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("state dir is empty")
	}

	victims := s.World.Victims
	if len(victims) > 100 {
		victims = victims[:100]
	}
	for _, v := range victims {
		for _, plant := range []string{v.FullName(), v.Email, v.Phone, v.IP} {
			if plant != "" && bytes.Contains(blob, []byte(plant)) {
				t.Errorf("checkpoint bytes contain raw PII %q", plant)
			}
		}
	}
	scanned := 0
	for _, d := range s.Doxes {
		if d.Text == "" {
			continue
		}
		for _, line := range strings.Split(d.Text, "\n") {
			if len(line) < 20 {
				continue
			}
			if bytes.Contains(blob, []byte(line)) {
				t.Errorf("checkpoint bytes contain raw dox text %q", line)
			}
			scanned++
			break // one long line per dox is plenty
		}
	}
	if scanned == 0 {
		t.Fatal("no dox text lines scanned — plant check did not run")
	}
}

// TestResumeOverLeaseAuditLog: state dirs written while sharded runs
// existed carry "lease" steal-audit lines (key and worker fields) in the
// commit log. Resume reads only day entries, so such a dir must still
// resume and finish bit-identical to an uninterrupted run.
func TestResumeOverLeaseAuditLog(t *testing.T) {
	t.Parallel()
	base := getBaseline(t, false)
	dir := t.TempDir()
	fileStore, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fileStore.Close()
	s := newDurableStudy(t, resumeCfg(1, false), fileStore)
	s.Cfg.Progress = &stopAfter{s: s, days: 6}
	if err := s.Run(context.Background()); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	s.Close()

	// Splice audit lines in ahead of the last day entry, where a sharded
	// run appended them (steals happen mid-day, before the day commits).
	logPath := filepath.Join(dir, "commits.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	lastDay := -1
	for i, l := range lines {
		if strings.Contains(l, `"kind":"day"`) {
			lastDay = i
		}
	}
	if lastDay < 0 {
		t.Fatal("commit log holds no day entry")
	}
	audit := `{"kind":"lease","seq":5,"vtime":"2016-05-07T00:00:00Z","key":"poll/pastebin","worker":2}` + "\n" +
		`{"kind":"lease","seq":5,"vtime":"2016-05-07T00:00:00Z","key":"prep/3","worker":1}` + "\n"
	spliced := strings.Join(lines[:lastDay], "") + audit + strings.Join(lines[lastDay:], "")
	if err := os.WriteFile(logPath, []byte(spliced), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := newDurableStudy(t, resumeCfg(1, false), fileStore)
	info, err := resumed.Resume()
	if err != nil {
		t.Fatalf("Resume over a log with lease lines: %v", err)
	}
	if !info.Resumed {
		t.Fatal("Resume found no checkpoint")
	}
	if err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	resumed.Close()
	compareStudies(t, base.s, resumed, base.tables, renderAnalyses(resumed))
}

// dayTotals records Study.Collected at the end of every study day.
type dayTotals struct {
	s      *core.Study
	totals []int
	// atDay, when set, runs on the driver goroutine after day len(totals).
	atDay func(day int)
}

func (w *dayTotals) Write(p []byte) (int, error) {
	w.totals = append(w.totals, w.s.Collected)
	if w.atDay != nil {
		w.atDay(len(w.totals))
	}
	return len(p), nil
}

// TestCancelledDayNeverCommits cancels Run while a day's pastebin poll is
// fetching bodies. The poll returns what it fetched before the
// cancellation, but a cancelled day commits none of it: Run returns
// context.Canceled with Collected at a day-end total of an uninterrupted
// run, and no goroutine of the study outlives Close. Not parallel: the
// goroutine count is process-wide.
func TestCancelledDayNeverCommits(t *testing.T) {
	ref, err := core.NewStudy(resumeCfg(0, false))
	if err != nil {
		t.Fatal(err)
	}
	refDays := &dayTotals{s: ref}
	ref.Cfg.Progress = refDays
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref.Close()

	settle := leakcheck.Mark(t)
	cfg := resumeCfg(0, false)
	// Pacing changes only wall time; it holds the poll open long enough
	// for the cancellation to land inside it.
	cfg.Crawl.MinInterval = 2 * time.Millisecond
	s, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelDay = 3
	start := make(chan int64, 1)
	days := &dayTotals{s: s, atDay: func(day int) {
		if day == cancelDay {
			start <- s.Pastebin.Requests()
		}
	}}
	s.Cfg.Progress = days
	cancelled := make(chan struct{})
	go func() {
		defer close(cancelled)
		select {
		case base := <-start:
			// The listing and at least one body fetch have been served:
			// the next day's poll is under way.
			for s.Pastebin.Requests() < base+2 && ctx.Err() == nil {
				time.Sleep(100 * time.Microsecond)
			}
			cancel()
		case <-ctx.Done():
		}
	}()
	err = s.Run(ctx)
	cancel()
	<-cancelled
	s.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if len(days.totals) < cancelDay {
		t.Fatalf("Run stopped after %d days, before the cancellation was armed", len(days.totals))
	}
	found := false
	for _, n := range refDays.totals {
		found = found || n == s.Collected
	}
	if !found {
		t.Fatalf("Collected = %d after cancellation on day %d, not a day-end total of the uninterrupted run %v",
			s.Collected, len(days.totals), refDays.totals[:len(days.totals)+1])
	}
	t.Logf("cancelled on day %d at Collected = %d", len(days.totals), s.Collected)
	settle()
}

// TestResumeValidation covers the guard rails: Resume without a
// checkpoint config, resume of a fresh store, and cross-study mismatches.
func TestResumeValidation(t *testing.T) {
	t.Parallel()
	mem := store.NewMem()

	s, err := core.NewStudy(resumeCfg(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resume(); err == nil {
		t.Error("Resume without StudyConfig.Checkpoint succeeded")
	}
	s.Close()

	// Fresh store: not an error, just not a resume.
	s = newDurableStudy(t, resumeCfg(1, false), mem)
	info, err := s.Resume()
	if err != nil || info.Resumed {
		t.Fatalf("fresh store Resume = %+v, %v; want not-resumed, nil", info, err)
	}
	// Run a few days so the store holds a snapshot, then stop.
	s.Cfg.Progress = &stopAfter{s: s, days: 5}
	if err := s.Run(context.Background()); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	s.Close()

	// A different seed must refuse the snapshot.
	cfg := resumeCfg(1, false)
	cfg.Seed++
	other := newDurableStudy(t, cfg, mem)
	if _, err := other.Resume(); err == nil {
		t.Error("Resume accepted a snapshot from a different seed")
	}
	other.Close()
}

// TestResumeReportsUnreadableLog: Resume cross-checks the snapshot's
// rolling digest against the commit log, so a log it cannot read must
// fail the resume. Before, the read error was dropped and the state dir
// resumed with no tamper check at all.
func TestResumeReportsUnreadableLog(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	fileStore, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newDurableStudy(t, resumeCfg(1, false), fileStore)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := fileStore.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, "commits.log")
	if err := os.Remove(logPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(logPath, 0o755); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	resumed := newDurableStudy(t, resumeCfg(1, false), reopened)
	defer resumed.Close()
	if info, err := resumed.Resume(); err == nil {
		t.Fatalf("Resume over an unreadable commit log = %+v, nil; want an error", info)
	}
}

// TestResumeRejectsNegativeNextIdx: a state dir whose monitor component
// carries a negative schedule position (corruption or tampering) must make
// Resume fail. Accepting it left Run to panic with an index out of range
// in the first monitor sweep.
func TestResumeRejectsNegativeNextIdx(t *testing.T) {
	t.Parallel()
	mem := store.NewMem()
	s := newDurableStudy(t, resumeCfg(1, false), mem)
	s.Cfg.Progress = &stopAfter{s: s, days: 5}
	if err := s.Run(context.Background()); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	s.Close()

	snap, _, err := mem.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	var mon map[string]any
	if err := json.Unmarshal(snap.Components["monitor"], &mon); err != nil {
		t.Fatal(err)
	}
	tampered := 0
	for _, h := range mon["histories"].([]any) {
		if h := h.(map[string]any); h["finished"] != true {
			h["next_idx"] = -3
			tampered++
		}
	}
	if tampered == 0 {
		t.Fatal("snapshot holds no unfinished monitor history to tamper with")
	}
	if snap.Components["monitor"], err = json.Marshal(mon); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	resumed := newDurableStudy(t, resumeCfg(1, false), mem)
	defer resumed.Close()
	if info, err := resumed.Resume(); err == nil {
		t.Fatalf("Resume over %d negative next_idx histories = %+v, nil; want an error", tampered, info)
	}
}

// TestResumeRejectsOutOfRangeState: a state dir whose pastebin cursor or
// board thread watermark lies outside [0, the snapshot's virtual time],
// whose monitor holds an observation with a status osn does not define or
// an unfinished history due after its horizon,
// whose feed's event seqs skip or start below 1, or whose funnel, dedup
// or notification registry holds a negative counter must make Resume
// fail, whether the bad value sits in a full snapshot or in the tip of a
// delta chain. Before the check, a cursor of 2^40 resumed and silently
// stopped collection, a board watermark of 2^40 silently hid every new
// reply in its thread, a next_due past the horizon silently stopped an
// account's observations, and a feed seq gap replayed old events to a
// consumer as new ones.
func TestResumeRejectsOutOfRangeState(t *testing.T) {
	t.Parallel()
	setCursor := func(c float64) func(map[string]any) int {
		return func(v map[string]any) int { v["cursor"] = c; return 1 }
	}
	// Full board state and board delta both map thread numbers to
	// watermarks under "last_mod".
	setLastMod := func(lm float64) func(map[string]any) int {
		return func(v map[string]any) int {
			marks, _ := v["last_mod"].(map[string]any)
			for no := range marks {
				marks[no] = lm
			}
			return len(marks)
		}
	}
	// Full monitor state lists "histories"; a delta patch lists new
	// histories under "upserts" and scraped ones under "appends".
	setStatus := func(st float64) func(map[string]any) int {
		return func(v map[string]any) int {
			n := 0
			for _, key := range []string{"histories", "upserts", "appends"} {
				hs, _ := v[key].([]any)
				for _, h := range hs {
					obs, _ := h.(map[string]any)["obs"].([]any)
					for _, o := range obs {
						o.(map[string]any)["Status"] = st
						n++
					}
				}
			}
			return n
		}
	}
	// setNextDue moves every unfinished history's next scrape to due.
	setNextDue := func(due string) func(map[string]any) int {
		return func(v map[string]any) int {
			n := 0
			for _, key := range []string{"histories", "upserts", "appends"} {
				hs, _ := v[key].([]any)
				for _, h := range hs {
					if h := h.(map[string]any); h["finished"] != true {
						h["next_due"] = due
						n++
					}
				}
			}
			return n
		}
	}
	// Full feed state and feed delta both list "events" and "next_seq".
	// seqGap moves the newest event and next_seq up by one, leaving a
	// hole below it; seqZero renumbers the events from 0.
	events := func(v map[string]any) []map[string]any {
		raw, _ := v["events"].([]any)
		out := make([]map[string]any, len(raw))
		for i, e := range raw {
			out[i] = e.(map[string]any)
		}
		return out
	}
	seqGap := func(v map[string]any) int {
		evs := events(v)
		if len(evs) == 0 {
			return 0
		}
		evs[len(evs)-1]["seq"] = evs[len(evs)-1]["seq"].(float64) + 1
		v["next_seq"] = v["next_seq"].(float64) + 1
		return 1
	}
	seqZero := func(v map[string]any) int {
		evs := events(v)
		if len(evs) == 0 {
			return 0
		}
		first := evs[0]["seq"].(float64)
		for _, e := range evs {
			e["seq"] = e["seq"].(float64) - first
		}
		v["next_seq"] = evs[len(evs)-1]["seq"].(float64) + 1
		return len(evs)
	}
	setCounter := func(key string) func(map[string]any) int {
		return func(v map[string]any) int { v[key] = -1.0; return 1 }
	}
	// setEntries sets every entry of the counter map or array under key
	// to -1; setEntry adds (or overwrites) one map entry.
	setEntries := func(key string) func(map[string]any) int {
		return func(v map[string]any) int {
			switch c := v[key].(type) {
			case map[string]any:
				for k := range c {
					c[k] = -1.0
				}
				return len(c)
			case []any:
				for i := range c {
					c[i] = -1.0
				}
				return len(c)
			}
			return 0
		}
	}
	setEntry := func(key, entry string) func(map[string]any) int {
		return func(v map[string]any) int {
			v[key] = map[string]any{entry: -1.0}
			return 1
		}
	}
	setStat := func(key string) func(map[string]any) int {
		return func(v map[string]any) int {
			v["stats"].(map[string]any)[key] = -1.0
			return 1
		}
	}
	// stop is the number of days a run commits before it stops; onDox
	// (0) stops it on a day that commits a unique dox instead: only such
	// a day changes the services and the dedup counters, so only then
	// does the tip delta carry them. Boards are crawled in period 2 only,
	// so their runs stop there.
	const onDox, board = 0, p1Days + 5
	tampers := []struct {
		name, comp string
		edit       func(map[string]any) int
		stop       int
	}{
		{"negative-cursor", "crawler/pastebin", setCursor(-1), 8},
		{"future-cursor", "crawler/pastebin", setCursor(1 << 40), 8},
		{"board-negative-last-mod", "crawler/4chan/b", setLastMod(-1), board},
		{"board-future-last-mod", "crawler/4chan/b", setLastMod(1 << 40), board},
		{"unknown-status", "monitor", setStatus(7), 8},
		{"negative-status", "monitor", setStatus(-1), 8},
		{"monitor-next-due-beyond-horizon", "monitor", setNextDue("9999-01-01T00:00:00Z"), 8},
		{"feed-seq-gap", "service/feed", seqGap, onDox},
		{"feed-seq-zero", "service/feed", seqZero, onDox},
		{"notify-negative-ingested", "service/notify", setCounter("ingested"), onDox},
		{"notify-negative-notified", "service/notify", setCounter("notified"), onDox},
		{"notify-negative-dropped", "service/notify", setCounter("dropped"), onDox},
		{"core-negative-collected", "core", setCounter("collected"), 8},
		{"core-negative-collected-by-site", "core", setEntries("collected_by_site"), 8},
		{"core-negative-flagged", "core", setEntries("flagged_by_period"), 8},
		{"core-negative-poll-failures", "core", setEntry("poll_failures", "pastebin"), 8},
		{"core-negative-monitor-failures", "core", setCounter("monitor_failures"), 8},
		{"core-negative-days-done", "core", setCounter("days_done"), 8},
		{"dedup-negative-unique", "dedup", setStat("Unique"), onDox},
		{"dedup-negative-exact-dups", "dedup", setStat("ExactDups"), onDox},
		{"dedup-negative-account-dups", "dedup", setStat("AccntDups"), onDox},
	}
	for _, mode := range []core.CheckpointMode{core.CheckpointFull, core.CheckpointDelta} {
		for _, tc := range tampers {
			mode, tc := mode, tc
			t.Run(string(mode)+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				cfg := resumeCfg
				if strings.HasPrefix(tc.comp, "service/") {
					cfg = streamCfg
				}
				mem := store.NewMem()
				ck := &core.CheckpointConfig{Store: mem, Mode: mode}
				s := newDurableStudyCkpt(t, cfg(1, false), ck)
				s.Cfg.Progress = &stopAfter{s: s, days: tc.stop}
				if tc.stop == onDox {
					// Stop on a day that commits a unique dox, past the
					// first.
					s.Cfg.Progress = &stopOnDox{s: s, min: 2}
				}
				if err := s.Run(context.Background()); !errors.Is(err, core.ErrStopped) {
					t.Fatalf("Run = %v, want ErrStopped", err)
				}
				s.Close()
				tamperTip(t, mem, tc.comp, tc.edit, mode == core.CheckpointDelta)

				resumed := newDurableStudyCkpt(t, cfg(1, false), ck)
				defer resumed.Close()
				if info, err := resumed.Resume(); err == nil {
					t.Fatalf("Resume over a tampered %s = %+v, nil; want an error", tc.comp, info)
				}
			})
		}
	}
}

// stopOnDox requests a clean stop at the end of the first day that
// committed a unique dox and leaves at least min of them.
type stopOnDox struct {
	s        *core.Study
	min, had int
}

func (w *stopOnDox) Write(p []byte) (int, error) {
	if n := len(w.s.Doxes); n > w.had && n >= w.min {
		w.s.RequestStop()
	}
	w.had = len(w.s.Doxes)
	return len(p), nil
}

// tamperTip rewrites one component of a state dir's newest cut through
// edit, which reports how many values it changed: the tip delta of the
// chain when wantDelta is set, the latest full snapshot otherwise. A tip
// delta must carry the component as a patch or whole.
func tamperTip(t *testing.T, mem *store.Mem, comp string, edit func(map[string]any) int, wantDelta bool) {
	t.Helper()
	base, deltas, err := mem.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if wantDelta != (len(deltas) > 0) {
		t.Fatalf("state dir holds %d deltas, want a delta tip: %v", len(deltas), wantDelta)
	}
	payload := base.Components[comp]
	var op string
	if wantDelta {
		cd := deltas[len(deltas)-1].Components[comp]
		if cd.Op != store.OpPatch && cd.Op != store.OpFull {
			t.Fatalf("tip delta carries %s as %q, want a patch or a full payload", comp, cd.Op)
		}
		payload, op = cd.Payload, cd.Op
	}
	var v map[string]any
	if err := json.Unmarshal(payload, &v); err != nil {
		t.Fatal(err)
	}
	if edit(v) == 0 {
		t.Fatalf("newest cut holds nothing to tamper with in %s", comp)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if wantDelta {
		tip := deltas[len(deltas)-1]
		tip.Components[comp] = store.ComponentDelta{Op: op, Payload: b}
		_, err = mem.SaveDelta(tip)
	} else {
		base.Components[comp] = b
		_, err = mem.SaveSnapshot(base)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestStudyConfigValidate pins the uniform Validate contract: zero values
// are valid, garbage is rejected with ErrInvalidConfig, and embedded
// policies surface their own sentinel errors through the wrap.
func TestStudyConfigValidate(t *testing.T) {
	t.Parallel()
	if err := (core.StudyConfig{}).Validate(); err != nil {
		t.Errorf("zero StudyConfig invalid: %v", err)
	}
	cases := []struct {
		name string
		cfg  core.StudyConfig
		is   error
	}{
		{"negative scale", core.StudyConfig{Scale: -1}, core.ErrInvalidConfig},
		{"negative control", core.StudyConfig{ControlSample: -1}, core.ErrInvalidConfig},
		{"negative label sample", core.StudyConfig{LabelSample: -1}, core.ErrInvalidConfig},
		{"checkpoint without store", core.StudyConfig{Checkpoint: &core.CheckpointConfig{}}, core.ErrInvalidConfig},
		{"bad crawl", core.StudyConfig{Crawl: crawler.Options{Backoff: -time.Second}}, crawler.ErrInvalidOptions},
		{"bad faults", core.StudyConfig{Faults: &faults.Profile{P500: 2}}, faults.ErrInvalidProfile},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate = nil", tc.name)
			continue
		}
		if !errors.Is(err, tc.is) {
			t.Errorf("%s: Validate = %v, not errors.Is(%v)", tc.name, err, tc.is)
		}
		if !errors.Is(err, core.ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
		if _, err := core.NewStudy(tc.cfg); err == nil {
			t.Errorf("%s: NewStudy accepted the config", tc.name)
		}
	}
}

// TestResumeSoak (env-gated; `make resume-soak`) hammers the resume path
// with randomized kill chains at randomized parallelism and fault
// profiles. The RNG seed is logged so any failure replays exactly.
func TestResumeSoak(t *testing.T) {
	if os.Getenv("DOXMETER_RESUME_SOAK") == "" {
		t.Skip("set DOXMETER_RESUME_SOAK=1 (or run `make resume-soak`) for the randomized kill/resume soak")
	}
	seed := time.Now().UnixNano()
	t.Logf("soak seed %d (re-run by hardcoding it here)", seed)
	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < 4; iter++ {
		mild := rng.Intn(2) == 1
		parallelism := rng.Intn(2) // 0 = GOMAXPROCS, 1 = sequential
		nCuts := 1 + rng.Intn(4)
		cutSet := map[int]bool{}
		for len(cutSet) < nCuts {
			cutSet[1+rng.Intn(totalDays-1)] = true
		}
		cuts := make([]int, 0, nCuts)
		for c := range cutSet {
			cuts = append(cuts, c)
		}
		sort.Ints(cuts)
		ck := &core.CheckpointConfig{Store: store.NewMem()}
		if rng.Intn(2) == 1 {
			ck.Mode = core.CheckpointDelta
		}
		t.Logf("iter %d: parallelism=%d mild=%v cuts=%v mode=%q",
			iter, parallelism, mild, cuts, ck.Mode)
		base := getBaseline(t, mild)
		s := runChainCkpt(t, resumeCfg(parallelism, mild), ck, cuts)
		compareStudies(t, base.s, s, base.tables, renderAnalyses(s))
	}
}
