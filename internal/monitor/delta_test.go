package monitor

import (
	"context"
	"encoding/json"
	"testing"

	"doxmeter/internal/netid"
	"doxmeter/internal/simclock"
)

// parentFormat rewrites d in the form deltas had before appends: every
// touched history upserted whole, as it stands in snap.
func parentFormat(d Delta, snap State) Delta {
	touched := map[string]bool{}
	for _, a := range d.Appends {
		touched[a.Key] = true
	}
	for _, hs := range d.Upserts {
		touched[historyStateKey(hs)] = true
	}
	out := Delta{Requests: d.Requests}
	for _, hs := range snap.Histories { // sorted by account key
		if touched[historyStateKey(hs)] {
			out.Upserts = append(out.Upserts, hs)
		}
	}
	return out
}

// TestDeltaMatchesSnapshot live-drives a monitor day by day — tracked
// accounts (regular and control) plus scheduled sweeps — cutting a delta
// each day and applying it to the previous cut's state. Every
// reconstructed state must marshal byte-identically to the full Snapshot
// taken at the same cut: through the delta as cut (new histories whole,
// scraped ones as appends), and through the same change in the form
// deltas had before appends (every touched history whole), which a
// resume must still replay.
func TestDeltaMatchesSnapshot(t *testing.T) {
	r := newRig(t, 0.05)
	r.mon.SetDeltaJournal(true)
	ctx := context.Background()

	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var base, parentBase State
	if err := json.Unmarshal([]byte(marshal(r.mon.Snapshot())), &base); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(marshal(r.mon.Snapshot())), &parentBase); err != nil {
		t.Fatal(err)
	}

	at := simclock.Period1.Start
	r.doxAndTrack(netid.Facebook, 4, at)
	r.doxAndTrack(netid.Instagram, 3, at)
	r.mon.TrackControl(31337, at)
	r.mon.TrackControl(1234, at)

	end := at.Add(45 * simclock.Day)
	day := 0
	sawUpserts, sawAppends := false, false
	for !r.clock.Now().After(end) {
		if err := r.mon.ProcessDue(ctx); err != nil {
			t.Fatal(err)
		}
		// Mid-run tracking, like dox commits during a study day.
		if day == 10 {
			r.doxAndTrack(netid.Twitter, 2, r.clock.Now())
		}
		d, dirty := r.mon.CutDelta()
		snap := r.mon.Snapshot()
		want := marshal(snap)
		for _, form := range []struct {
			name string
			d    Delta
			base *State
		}{{"appends", d, &base}, {"parent-format", parentFormat(d, snap), &parentBase}} {
			var d2 Delta // deltas cross the codec before apply
			if err := json.Unmarshal([]byte(marshal(form.d)), &d2); err != nil {
				t.Fatal(err)
			}
			if err := d2.Apply(form.base); err != nil {
				t.Fatalf("day %d: %s delta: %v", day, form.name, err)
			}
			if got := marshal(*form.base); got != want {
				t.Fatalf("day %d: %s delta-applied state diverged:\n%s\nvs\n%s", day, form.name, got, want)
			}
			if err := json.Unmarshal([]byte(marshal(*form.base)), form.base); err != nil {
				t.Fatal(err)
			}
		}
		if len(d.Upserts) > 0 {
			sawUpserts = true
			if !dirty {
				t.Fatalf("day %d: upserts present but dirty=false", day)
			}
		}
		if len(d.Appends) > 0 {
			sawAppends = true
			if !dirty {
				t.Fatalf("day %d: appends present but dirty=false", day)
			}
		}
		for _, a := range d.Appends {
			if len(a.Obs) > 1 {
				t.Fatalf("day %d: %s appended %d observations in one daily sweep", day, a.Key, len(a.Obs))
			}
		}
		r.clock.Advance(simclock.Day)
		day++
	}
	if !sawUpserts || !sawAppends {
		t.Fatalf("deltas carried upserts %v, appends %v; the harness must produce both", sawUpserts, sawAppends)
	}
	if _, dirty := r.mon.CutDelta(); dirty {
		t.Fatal("quiescent cut reported dirty")
	}

	// Restore resets the journal: a post-restore cut is clean and the
	// next mutation diffs against the restored state.
	saved := r.mon.Snapshot()
	if err := r.mon.Restore(saved); err != nil {
		t.Fatal(err)
	}
	if d, dirty := r.mon.CutDelta(); dirty || len(d.Upserts) > 0 {
		t.Fatalf("journal leaked across Restore: dirty=%v upserts=%d", dirty, len(d.Upserts))
	}
	r.mon.TrackControl(999999, r.clock.Now())
	d, dirty := r.mon.CutDelta()
	if !dirty || len(d.Upserts) != 1 {
		t.Fatalf("post-restore track not journaled: dirty=%v upserts=%d", dirty, len(d.Upserts))
	}
	var st State
	if err := json.Unmarshal([]byte(marshal(saved)), &st); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(&st); err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(st), marshal(r.mon.Snapshot()); got != want {
		t.Fatalf("post-restore delta diverged:\n%s\nvs\n%s", got, want)
	}

	// An append to an account the state does not hold belongs to another
	// chain: Apply refuses it instead of dropping the observations.
	stray := Delta{Requests: st.Requests, Appends: []HistoryAppend{{Key: "facebook:nobody", NextIdx: 1}}}
	if err := stray.Apply(&st); err == nil {
		t.Fatal("Apply accepted an append to an untracked account")
	}
}

// TestRestoreRejectsNegativeNextIdx: a negative schedule position in a
// checkpoint must fail Restore — whether it arrives in a full snapshot or
// through a delta upsert — instead of panicking in the first sweep after
// resume, where advance indexes the revisit schedule with it.
func TestRestoreRejectsNegativeNextIdx(t *testing.T) {
	r := newRig(t, 0.05)
	at := simclock.Period1.Start
	r.doxAndTrack(netid.Facebook, 3, at)
	r.mon.TrackControl(31337, at)
	if err := r.mon.ProcessDue(context.Background()); err != nil {
		t.Fatal(err)
	}
	good := r.mon.Snapshot()

	bad := r.mon.Snapshot()
	bad.Histories[0].NextIdx = -3
	if err := r.mon.Restore(bad); err == nil {
		t.Fatal("Restore accepted a negative next_idx")
	}
	if got, want := len(r.mon.Histories()), len(good.Histories); got != want {
		t.Fatalf("failed Restore replaced the state: %d histories, want %d", got, want)
	}

	st := r.mon.Snapshot()
	up := st.Histories[len(st.Histories)-1]
	up.NextIdx = -1
	Delta{Requests: st.Requests, Upserts: []HistoryState{up}}.Apply(&st)
	if err := r.mon.Restore(st); err == nil {
		t.Fatal("Restore accepted a negative next_idx applied from a delta")
	}

	if err := r.mon.Restore(good); err != nil {
		t.Fatalf("Restore of the untouched snapshot: %v", err)
	}
	r.clock.Advance(simclock.Day)
	if err := r.mon.ProcessDue(context.Background()); err != nil {
		t.Fatal(err)
	}
}
