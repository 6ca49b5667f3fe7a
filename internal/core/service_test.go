package core_test

// Service-mode keystone suite: a study run with StudyConfig.Stream and a
// live Fanout — every unique dox delivered from commit to the §7
// services (notification registry, anti-SWATing watchlist,
// threat-exchange feed) — must reproduce the plain study bit for bit:
// same funnel, same dox records, same monitor histories, same rendered
// tables, same durable run digest, at Parallelism 1 and 0, with and
// without fault injection, and across kill/resume chains. The services'
// own state must checkpoint and restore exactly, and alerts must reach
// them in commit order.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
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

// streamCfg is resumeCfg in service mode, with all three services
// attached. The watchlist clock is fixed: these tests compare study
// results, which no service state feeds back into.
func streamCfg(parallelism int, mild bool) core.StudyConfig {
	cfg := resumeCfg(parallelism, mild)
	cfg.Stream = &core.StreamConfig{Fanout: &stream.Fanout{
		Notify:    notify.NewService("stream-keystone-salt"),
		Watchlist: watchlist.New(0, func() time.Time { return simclock.Period1.Start }),
		Feed:      feed.NewLog(),
	}}
	return cfg
}

// TestStreamBitIdentical is the keystone: a service-mode run, which
// delivers every unique dox to the attached services from inside commit,
// is bit-identical to the plain study on the same world/seed/schedule,
// faults on or off.
func TestStreamBitIdentical(t *testing.T) {
	cases := []struct {
		name        string
		parallelism int
		mild        bool
	}{
		{"par1", 1, false},
		{"par0", 0, false},
		{"par1-faults", 1, true},
		{"par0-faults", 0, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := getBaseline(t, tc.mild)
			s, err := core.NewStudy(streamCfg(tc.parallelism, tc.mild))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			s.Close()
			compareStudies(t, base.s, s, base.tables, renderAnalyses(s))
		})
	}
}

// TestStreamResumeBitIdentical kills a durable service-mode study at day
// boundaries — including exactly at the period boundary — and resumes it;
// the completion must match the uninterrupted plain baseline.
func TestStreamResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name        string
		parallelism int
		mild        bool
		cuts        []int
	}{
		{"par1", 1, false, []int{10, p1Days, 60}},
		{"par0-faults", 0, true, []int{25}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := getBaseline(t, tc.mild)
			s := runChain(t, streamCfg(tc.parallelism, tc.mild), store.NewMem(), tc.cuts)
			compareStudies(t, base.s, s, base.tables, renderAnalyses(s))
		})
	}
}

// TestStreamDigestMatchesBatch compares the rolling run digests of two
// durable completions — one plain, one in service mode with kill/resume
// cuts. Digest equality is a stronger claim than compareStudies: every
// committed day folded the same bytes in the same order.
func TestStreamDigestMatchesBatch(t *testing.T) {
	t.Parallel()
	batch := newDurableStudy(t, resumeCfg(1, false), store.NewMem())
	if err := batch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	batch.Close()
	served := runChain(t, streamCfg(0, false), store.NewMem(), []int{10, p1Days, 60})
	bd, sd := batch.RunDigest(), served.RunDigest()
	if bd == "" || bd != sd {
		t.Fatalf("run digest diverged: plain %q, service mode %q", bd, sd)
	}
}

// TestAlertFanoutFromCommit: service mode delivers exactly one feed event
// per unique dox, in Study.Doxes (commit) order, and observes one
// paste-seen → alert-delivered latency per delivery.
func TestAlertFanoutFromCommit(t *testing.T) {
	t.Parallel()
	cfg := streamCfg(0, false)
	hub := telemetry.NewHub(0, nil)
	cfg.Telemetry = hub
	s, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(s.Doxes) == 0 {
		t.Fatal("the study committed no unique dox; the check below is vacuous")
	}
	evs, err := cfg.Stream.Fanout.Feed.After(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(s.Doxes) {
		t.Fatalf("feed holds %d events for %d unique doxes", len(evs), len(s.Doxes))
	}
	for i, d := range s.Doxes {
		if want := feed.URLFor(d.Site, d.DocID); evs[i].URL != want {
			t.Fatalf("feed event %d = %s, want %s (commit order)", i, evs[i].URL, want)
		}
	}
	lat := hub.Registry.NewHistogram("doxmeter_alert_latency_seconds", "", nil).With()
	if n := lat.Count(); n != uint64(len(s.Doxes)) {
		t.Fatalf("alert latency histogram holds %d observations for %d unique doxes", n, len(s.Doxes))
	}
}

// streamServices is one leg's freshly constructed §7 service set; resume
// must rebuild its state from the checkpoint alone (the salt is config,
// never persisted, so every leg supplies the same one). The watchlist
// reads the virtual clock of whichever study *study points at.
type streamServices struct {
	svc *notify.Service
	wl  *watchlist.Watchlist
	log *feed.Log
}

func newStreamServices(study **core.Study) *streamServices {
	return &streamServices{
		svc: notify.NewService("stream-keystone-salt"),
		wl:  watchlist.New(0, func() time.Time { return (*study).Clock.Now() }),
		log: feed.NewLog(),
	}
}

func (sv *streamServices) fanout() *stream.Fanout {
	return &stream.Fanout{Notify: sv.svc, Watchlist: sv.wl, Feed: sv.log}
}

// subscribeVictims registers the first three phone-disclosing victims with
// the notification service. The world derives from the seed, so every run
// of the same config picks the same victims.
func subscribeVictims(svc *notify.Service, s *core.Study) {
	n := 0
	for _, v := range s.World.Victims {
		if !v.Fields.Phone || len(v.OSN) == 0 {
			continue
		}
		id := fmt.Sprintf("victim-%d", n)
		svc.Subscribe(id, notify.KindEmail, v.Email)
		svc.Subscribe(id, notify.KindPhone, v.Phone)
		for netw, user := range v.OSN {
			svc.SubscribeAccount(id, netid.Ref{Network: netw, Username: user})
		}
		if n++; n == 3 {
			return
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runServiceChain runs a durable service-mode study with live fan-out
// services in kill/resume legs, constructing FRESH service instances for
// every leg so the restore path — not object identity — carries the state.
// Returns the JSON-encoded final state of each service.
func runServiceChain(t *testing.T, ck core.CheckpointConfig, cuts []int) (svcState, wlState, feedState string) {
	t.Helper()
	leg := func(stopAt, prev int) *streamServices {
		var s *core.Study
		sv := newStreamServices(&s)
		cfg := resumeCfg(1, false)
		cfg.Stream = &core.StreamConfig{Fanout: sv.fanout()}
		cp := ck
		cfg.Checkpoint = &cp
		s, err := core.NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		info, err := s.Resume()
		if err != nil {
			t.Fatal(err)
		}
		if (prev > 0) != info.Resumed {
			t.Fatalf("leg to day %d: resume info %+v after %d days", stopAt, info, prev)
		}
		if prev == 0 {
			subscribeVictims(sv.svc, s)
		}
		if stopAt > 0 {
			s.Cfg.Progress = &stopAfter{s: s, days: stopAt - prev}
		}
		err = s.Run(context.Background())
		if stopAt > 0 {
			if !errors.Is(err, core.ErrStopped) {
				t.Fatalf("leg to day %d: Run = %v, want ErrStopped", stopAt, err)
			}
		} else if err != nil {
			t.Fatalf("final leg: %v", err)
		}
		return sv
	}
	prev := 0
	for _, cut := range cuts {
		leg(cut, prev)
		prev = cut
	}
	sv := leg(0, prev)
	return mustJSON(t, sv.svc.Snapshot()), mustJSON(t, sv.wl.Snapshot()), mustJSON(t, sv.log.Snapshot())
}

// TestServiceResume: kill a service-mode study at arbitrary days, rebuild
// the services from scratch each leg, and the final notification
// registry, watchlist, and feed are byte-identical to an uninterrupted
// service run — under both full and delta checkpointing.
func TestServiceResume(t *testing.T) {
	t.Parallel()
	refSvc, refWl, refFeed := runServiceChain(t, core.CheckpointConfig{Store: store.NewMem()}, nil)

	// The reference run must have produced real service traffic, or the
	// comparison below is vacuous.
	var fst feed.State
	if err := json.Unmarshal([]byte(refFeed), &fst); err != nil {
		t.Fatal(err)
	}
	if fst.NextSeq < 2 {
		t.Fatalf("reference feed carried %d events — fan-out never fired", fst.NextSeq-1)
	}

	cases := []struct {
		name string
		mode core.CheckpointMode
		cuts []int
	}{
		{"full", "", []int{10, p1Days, 60}},
		{"delta", core.CheckpointDelta, []int{25, 70}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ck := core.CheckpointConfig{Store: store.NewMem(), Mode: tc.mode}
			gotSvc, gotWl, gotFeed := runServiceChain(t, ck, tc.cuts)
			if gotSvc != refSvc {
				t.Errorf("notify state diverged:\nref %s\ngot %s", refSvc, gotSvc)
			}
			if gotWl != refWl {
				t.Errorf("watchlist state diverged:\nref %s\ngot %s", refWl, gotWl)
			}
			if gotFeed != refFeed {
				t.Errorf("feed state diverged:\nref %s\ngot %s", refFeed, gotFeed)
			}
		})
	}
}
