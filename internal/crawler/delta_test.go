package crawler

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"doxmeter/internal/simclock"
	"doxmeter/internal/sites"
	"doxmeter/internal/textgen"
)

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// roundTrip pushes a state through JSON once, the way a delta apply sees
// its base (decoded from the previous checkpoint, not live).
func roundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	var out T
	if err := json.Unmarshal(mustJSON(t, v), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPastebinDeltaMatchesSnapshot live-drives the crawler week by week,
// cutting a delta at each step and applying it to the previous cut's
// state. Every reconstructed state must marshal byte-identically to the
// full Snapshot taken at the same cut.
func TestPastebinDeltaMatchesSnapshot(t *testing.T) {
	corpus := smallCorpus(t)
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period1.Start)
	pb := sites.NewPastebin(clock, docs, sites.DeletionModel{}, 1)
	srv := httptest.NewServer(pb.Handler())
	defer srv.Close()

	c := NewPastebin(srv.URL, Options{})
	c.SetDeltaJournal()
	ctx := context.Background()

	base := roundTrip(t, c.Snapshot())
	sawDirty := false
	for day := simclock.Period1.Start; day.Before(simclock.Period2.End); day = day.Add(7 * simclock.Day) {
		clock.Set(day)
		if _, err := c.Poll(ctx); err != nil {
			t.Fatal(err)
		}
		d, dirty := c.CutDelta()
		want := mustJSON(t, c.Snapshot())
		d2 := roundTrip(t, d) // deltas also cross the codec before apply
		d2.Apply(&base)
		if got := mustJSON(t, base); string(got) != string(want) {
			t.Fatalf("delta-applied state diverged at %s:\n%s\nvs\n%s", day, got, want)
		}
		if dirty {
			sawDirty = true
		} else if len(d.Added) > 0 || d.Cursor != base.Cursor {
			t.Fatal("dirty=false but delta non-empty")
		}
		base = roundTrip(t, base)
	}
	if !sawDirty {
		t.Fatal("no cut ever reported dirty; harness drove no traffic")
	}
	// A cut with no traffic in between must be clean.
	if _, dirty := c.CutDelta(); dirty {
		t.Fatal("quiescent cut reported dirty")
	}
}

// TestBoardDeltaMatchesSnapshot is the board-crawler analogue, covering
// watermark-only updates (threads with activity but no new posts) as
// well as post adds.
func TestBoardDeltaMatchesSnapshot(t *testing.T) {
	corpus := smallCorpus(t)
	docs := corpus.Streams[textgen.SiteFourchanB]
	clock := simclock.NewClock(simclock.Period2.Start)
	site := sites.NewBoardSite(clock, map[string][]textgen.Doc{"b": docs}, 3)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	c := NewBoard(srv.URL, "b", "4chan/b", Options{})
	c.SetDeltaJournal()
	ctx := context.Background()

	base := roundTrip(t, c.Snapshot())
	sawDirty := false
	for day := simclock.Period2.Start; !day.After(simclock.Period2.End); day = day.Add(7 * simclock.Day) {
		clock.Set(day)
		if _, err := c.Poll(ctx); err != nil {
			t.Fatal(err)
		}
		d, dirty := c.CutDelta()
		want := mustJSON(t, c.Snapshot())
		d2 := roundTrip(t, d)
		d2.Apply(&base)
		if got := mustJSON(t, base); string(got) != string(want) {
			t.Fatalf("delta-applied state diverged at %s:\n%s\nvs\n%s", day, got, want)
		}
		if dirty {
			sawDirty = true
		}
		base = roundTrip(t, base)
	}
	if !sawDirty {
		t.Fatal("no cut ever reported dirty; harness drove no traffic")
	}
	if _, dirty := c.CutDelta(); dirty {
		t.Fatal("quiescent cut reported dirty")
	}
}

// TestDeltaJournalSurvivesRestore: a restore mid-run resets the journal
// so the next cut diffs against the restored state, not the pre-crash
// one.
func TestDeltaJournalSurvivesRestore(t *testing.T) {
	corpus := smallCorpus(t)
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period1.Start)
	pb := sites.NewPastebin(clock, docs, sites.DeletionModel{}, 1)
	srv := httptest.NewServer(pb.Handler())
	defer srv.Close()

	c := NewPastebin(srv.URL, Options{})
	c.SetDeltaJournal()
	ctx := context.Background()

	clock.Set(simclock.Period1.Start.Add(14 * simclock.Day))
	if _, err := c.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	saved := c.Snapshot()
	c.CutDelta() // align the journal with the saved state

	clock.Set(simclock.Period1.Start.Add(28 * simclock.Day))
	if _, err := c.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	// Crash: roll back to the saved state. The journaled post-save adds
	// must vanish with it.
	c.Restore(saved)
	if d, dirty := c.CutDelta(); dirty || len(d.Added) > 0 {
		t.Fatalf("journal leaked across Restore: dirty=%v added=%d", dirty, len(d.Added))
	}
	clock.Set(simclock.Period1.Start.Add(28 * simclock.Day))
	if _, err := c.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	d, dirty := c.CutDelta()
	if !dirty {
		t.Fatal("post-restore poll produced no delta")
	}
	base := roundTrip(t, saved)
	d.Apply(&base)
	if got, want := string(mustJSON(t, base)), string(mustJSON(t, c.Snapshot())); got != want {
		t.Fatalf("post-restore delta diverged:\n%s\nvs\n%s", got, want)
	}
}
