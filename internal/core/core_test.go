package core

import (
	"context"
	"strings"
	"testing"

	"doxmeter/internal/leakcheck"
	"doxmeter/internal/metrics"
	"doxmeter/internal/monitor"
	"doxmeter/internal/netid"
)

// runSmallStudy executes a scaled-down but complete study once per test
// binary; the analyses are cheap to re-run against it.
var smallStudy *Study

func study(t *testing.T) *Study {
	t.Helper()
	if smallStudy != nil {
		return smallStudy
	}
	s, err := NewStudy(StudyConfig{Seed: 7, Scale: 0.02, ControlSample: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	smallStudy = s
	return s
}

func TestStudyFunnel(t *testing.T) {
	s := study(t)
	cfg := s.World.Cfg
	// Collection completeness: every hosted document was collected.
	if want := cfg.ScaledTotalFiles(); s.Collected < want*99/100 || s.Collected > want {
		t.Errorf("collected %d of %d hosted documents", s.Collected, want)
	}
	for _, site := range []string{"pastebin", "4chan/b", "4chan/pol", "8ch/pol", "8ch/baphomet"} {
		if s.CollectedBySite[site] == 0 {
			t.Errorf("no documents collected from %s", site)
		}
	}
	// Flagged rate ~0.3% (paper abstract).
	flagged := s.FlaggedByPeriod[1] + s.FlaggedByPeriod[2]
	rate := float64(flagged) / float64(s.Collected)
	if rate < 0.002 || rate > 0.006 {
		t.Errorf("flagged rate %.4f, want ~0.003", rate)
	}
	// Dedup removed a meaningful share.
	stats := s.Deduper.Stats()
	if stats.Total() != flagged {
		t.Errorf("dedup classified %d, flagged %d", stats.Total(), flagged)
	}
	if len(s.Doxes) != stats.Unique {
		t.Errorf("unique doxes %d vs dedup unique %d", len(s.Doxes), stats.Unique)
	}
	dupFrac := float64(stats.TotalDups()) / float64(stats.Total())
	if dupFrac < 0.05 || dupFrac > 0.30 {
		t.Errorf("duplicate fraction %.3f, want ~0.18 (§3.1.4)", dupFrac)
	}
}

func TestStudyClassifierEval(t *testing.T) {
	s := study(t)
	rep := s.ClfEval.Report
	if rep[0].Label != "Dox" || rep[0].Recall < 0.8 || rep[0].Precision < 0.7 {
		t.Errorf("dox row P=%.2f R=%.2f, want ~0.81/0.89 (Table 1)", rep[0].Precision, rep[0].Recall)
	}
	if rep[1].Precision < 0.97 {
		t.Errorf("not row P=%.2f, want ~0.99", rep[1].Precision)
	}
}

func TestStudyRecallAgainstGroundTruth(t *testing.T) {
	s := study(t)
	// The pipeline should have detected most planted doxes: flagged count
	// within a recall-shaped band of planted count.
	planted := s.World.Cfg.ScaledDoxesP1() + s.World.Cfg.ScaledDoxesP2()
	flagged := s.FlaggedByPeriod[1] + s.FlaggedByPeriod[2]
	// Wild-corpus recall sits below the Table 1 eval recall (wild doxes
	// are leaner than the dox-for-hire training corpus) and residual
	// false positives add a few detections back.
	ratio := float64(flagged) / float64(planted)
	if ratio < 0.55 || ratio > 1.3 {
		t.Errorf("flagged/planted = %.3f (flagged=%d planted=%d)", ratio, flagged, planted)
	}
}

func TestStudyOSNCounts(t *testing.T) {
	s := study(t)
	counts := s.OSNCounts()
	if counts[netid.Facebook] == 0 {
		t.Fatal("no Facebook references extracted")
	}
	// Facebook leads all other networks (Table 9).
	for _, n := range []netid.Network{netid.GooglePlus, netid.Twitter, netid.Instagram, netid.YouTube, netid.Twitch} {
		if counts[n] > counts[netid.Facebook] {
			t.Errorf("%v (%d) exceeds Facebook (%d)", n, counts[n], counts[netid.Facebook])
		}
	}
}

func TestStudyLabeling(t *testing.T) {
	s := study(t)
	agg, labels := s.LabelSample(100)
	if agg.N == 0 || len(labels) != agg.N {
		t.Fatalf("labeled %d/%d", len(labels), agg.N)
	}
	n := float64(agg.N)
	if addr := float64(agg.Address) / n; addr < 0.7 {
		t.Errorf("address rate %.2f, want ~0.9 (Table 6)", addr)
	}
	if male := float64(agg.Male) / n; male < 0.65 {
		t.Errorf("male rate %.2f, want ~0.82 (Table 5)", male)
	}
	if agg.Justice == 0 && agg.Revenge == 0 {
		t.Error("no justice or revenge motives labeled (Table 8)")
	}
}

func TestStudyDeletionCheck(t *testing.T) {
	s := study(t)
	del := s.DeletionCheck()
	if del.Dox.N == 0 || del.Other.N == 0 {
		t.Fatalf("deletion check empty: %+v", del)
	}
	if del.Dox.Rate() < 2*del.Other.Rate() {
		t.Errorf("dox deletion rate %.3f not >> other %.3f (Table 3)", del.Dox.Rate(), del.Other.Rate())
	}
}

func TestStudyGeoValidation(t *testing.T) {
	s := study(t)
	v := s.ValidateGeo(50)
	if v.Usable == 0 {
		t.Fatal("no usable IP+postal doxes")
	}
	same := v.ExactCity + v.SameState
	if frac := float64(same) / float64(v.Usable); frac < 0.7 {
		t.Errorf("same-region fraction %.2f, want ~0.89 (§4.1: 32/36)", frac)
	}
	if v.ExactCity >= same/2+1 && v.Usable > 10 {
		t.Errorf("exact-city matches dominate (%d of %d); §4.1 found only 4 of 32", v.ExactCity, same)
	}
}

func TestStudyDoxerNetwork(t *testing.T) {
	s := study(t)
	net := s.BuildDoxerNetwork(4)
	if net.CreditedDoxers == 0 {
		t.Fatal("no credited doxers recovered")
	}
	if net.InCliques == 0 {
		t.Error("no doxers in cliques >= 4 (Figure 2 found 61)")
	}
	// At test scale only a fraction of each crew ever gets credited, so
	// the observed maximum clique is a lower bound; the full benchmark
	// (larger scale) approaches the paper's 11.
	if net.LargestClique < 4 {
		t.Errorf("largest clique %d, want >= 4 (Figure 2 shape)", net.LargestClique)
	}
	if net.WithTwitter == 0 {
		t.Error("no credited doxers with Twitter handles")
	}
}

func TestStudyMonitorStats(t *testing.T) {
	s := study(t)
	hist := s.Monitor.Histories()
	ctrl := monitor.Changes(hist, monitor.Controls())
	if ctrl.Total < 1000 {
		t.Fatalf("control sample %d", ctrl.Total)
	}
	if ctrl.AnyChangeRate() > 0.01 {
		t.Errorf("control change rate %.4f, want ~0.002", ctrl.AnyChangeRate())
	}
	doxedFB := monitor.Changes(hist, monitor.ByNetwork(netid.Facebook))
	if doxedFB.Total == 0 {
		t.Fatal("no monitored Facebook accounts")
	}
	// Doxed accounts change far more often than controls (Table 10); the
	// two-proportion p-value is asymptotically zero.
	p := metrics.TwoProportionP(
		metrics.Proportion{Hits: doxedFB.AnyChange, N: doxedFB.Total},
		metrics.Proportion{Hits: ctrl.AnyChange, N: ctrl.Total},
	)
	if p > 1e-6 {
		t.Errorf("doxed-vs-control p = %g, want asymptotically zero (§6.2.2)", p)
	}
}

func TestStudyPrePostFilterEffect(t *testing.T) {
	t.Skip("needs a larger scale for stable per-period splits; covered by the benchmark harness")
}

func TestStudyPrivacyStore(t *testing.T) {
	s := study(t)
	store := s.BuildStore("test-salt")
	if store.Len() != len(s.Doxes) {
		t.Fatalf("store has %d records for %d doxes", store.Len(), len(s.Doxes))
	}
	agg := store.Aggregate()
	if agg["address"] == 0 || agg["records"] != len(s.Doxes) {
		t.Fatalf("store aggregate broken: %v", agg)
	}
	// The §3.3 guarantee, end to end: serialize and hunt for raw PII from
	// the underlying world.
	var buf strings.Builder
	if err := store.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	leaks := 0
	for _, v := range s.World.Victims[:50] {
		for _, secret := range []string{v.Email, v.Phone, v.Street, v.Alias} {
			if secret != "" && strings.Contains(dump, secret) {
				leaks++
			}
		}
		for _, u := range v.OSN {
			if strings.Contains(dump, u) {
				leaks++
			}
		}
	}
	if leaks > 0 {
		t.Fatalf("privacy store export leaks %d raw values", leaks)
	}
	// Joins still work: at least one monitored account resolves.
	found := false
	for _, h := range s.Monitor.Histories() {
		if !h.Control && store.ContainsAccount(h.Ref) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no monitored account joins against the store digests")
	}
}

func TestStudyActivityMetricRecorded(t *testing.T) {
	s := study(t)
	withActivity := 0
	for _, h := range s.Monitor.Histories() {
		if h.Activity >= 0 {
			withActivity++
		}
	}
	if withActivity == 0 {
		t.Fatal("no account recorded an activity metric")
	}
}

func TestStudyConfigDefaults(t *testing.T) {
	cfg := StudyConfig{}.withDefaults()
	if cfg.Scale != 0.05 {
		t.Errorf("default scale = %v", cfg.Scale)
	}
	if cfg.ControlSample < 669 {
		t.Errorf("default control sample = %d", cfg.ControlSample)
	}
	if cfg.LabelSample != 464 {
		t.Errorf("default label sample = %d (paper labels 464)", cfg.LabelSample)
	}
	// Explicit values survive.
	cfg2 := StudyConfig{Scale: 0.5, ControlSample: 42, LabelSample: 9}.withDefaults()
	if cfg2.Scale != 0.5 || cfg2.ControlSample != 42 || cfg2.LabelSample != 9 {
		t.Errorf("explicit config overridden: %+v", cfg2)
	}
}

// TestNewStudyStartsNoGoroutines: a built study leaves no goroutine
// running before Close. Its simulated services run in-process, on the
// goroutine of whoever fetches from them.
func TestNewStudyStartsNoGoroutines(t *testing.T) {
	settle := leakcheck.Mark(t)
	s, err := NewStudy(StudyConfig{Seed: 99, Scale: 0.001, ControlSample: 10})
	if err != nil {
		t.Fatal(err)
	}
	settle()
	s.Close()
}

func TestStudyCloseIdempotent(t *testing.T) {
	s := study(t)
	_ = s // closing the shared study would break later tests; exercise a fresh one
	s2, err := NewStudy(StudyConfig{Seed: 99, Scale: 0.001, ControlSample: 10})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s2.Close() // double close must not panic
}

// TestStudyParallelMatchesSequential is the tentpole's determinism
// guarantee: for a fixed seed, a Parallelism=4 study must produce results
// bit-identical to a Parallelism=1 study — same funnel counters, same dox
// records in the same order, same monitored accounts.
func TestStudyParallelMatchesSequential(t *testing.T) {
	run := func(parallelism int) *Study {
		s, err := NewStudy(StudyConfig{Seed: 11, Scale: 0.004, ControlSample: 300, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq := run(1)
	par := run(4)

	if seq.Collected != par.Collected {
		t.Errorf("Collected: sequential %d, parallel %d", seq.Collected, par.Collected)
	}
	if len(seq.CollectedBySite) != len(par.CollectedBySite) {
		t.Errorf("CollectedBySite size: %d vs %d", len(seq.CollectedBySite), len(par.CollectedBySite))
	}
	for site, n := range seq.CollectedBySite {
		if par.CollectedBySite[site] != n {
			t.Errorf("CollectedBySite[%s]: sequential %d, parallel %d", site, n, par.CollectedBySite[site])
		}
	}
	if seq.FlaggedByPeriod != par.FlaggedByPeriod {
		t.Errorf("FlaggedByPeriod: sequential %v, parallel %v", seq.FlaggedByPeriod, par.FlaggedByPeriod)
	}
	if len(seq.Doxes) != len(par.Doxes) {
		t.Fatalf("Doxes: sequential %d, parallel %d", len(seq.Doxes), len(par.Doxes))
	}
	for i := range seq.Doxes {
		a, b := seq.Doxes[i], par.Doxes[i]
		if a.DocID != b.DocID || a.Site != b.Site || !a.Posted.Equal(b.Posted) ||
			a.Period != b.Period || a.Text != b.Text {
			t.Fatalf("dox %d diverged: %s/%s vs %s/%s", i, a.Site, a.DocID, b.Site, b.DocID)
		}
	}
	if seq.Deduper.Stats() != par.Deduper.Stats() {
		t.Errorf("dedup stats: sequential %+v, parallel %+v", seq.Deduper.Stats(), par.Deduper.Stats())
	}
	seqHist := seq.Monitor.Histories()
	parHist := par.Monitor.Histories()
	if len(seqHist) != len(parHist) {
		t.Fatalf("monitor histories: sequential %d, parallel %d", len(seqHist), len(parHist))
	}
	for i := range seqHist {
		a, b := seqHist[i], parHist[i]
		if a.Ref != b.Ref || a.Verified != b.Verified || len(a.Obs) != len(b.Obs) {
			t.Fatalf("history %v diverged (%d vs %d observations)", a.Ref, len(a.Obs), len(b.Obs))
		}
	}
}
