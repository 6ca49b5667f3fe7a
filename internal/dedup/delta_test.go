package dedup

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestDeltaMatchesSnapshot live-drives a Deduper through batches of
// checks — uniques, exact duplicates, account duplicates — cutting a
// delta after each batch and applying it to the previous cut's state.
// Every reconstructed state must marshal byte-identically to the full
// Snapshot taken at the same cut.
func TestDeltaMatchesSnapshot(t *testing.T) {
	d := New()
	d.SetDeltaJournal()

	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var base State
	if err := json.Unmarshal([]byte(marshal(d.Snapshot())), &base); err != nil {
		t.Fatal(err)
	}

	for batch := 0; batch < 8; batch++ {
		for i := 0; i < 5; i++ {
			id := fmt.Sprintf("pastebin/b%d-%d", batch, i)
			body := fmt.Sprintf("dox body %d %d", batch, i)
			key := fmt.Sprintf("accounts-%d-%d", batch, i%3)
			d.Check(id, body, key)
		}
		// Re-check the batch's first doc: an exact duplicate mutates only
		// Stats, which must still mark the cut dirty.
		d.Check("pastebin/dup", fmt.Sprintf("dox body %d 0", batch), "")

		delta, dirty := d.CutDelta()
		if !dirty {
			t.Fatalf("batch %d: mutations not marked dirty", batch)
		}
		want := marshal(d.Snapshot())
		var d2 Delta // deltas cross the codec before apply
		if err := json.Unmarshal([]byte(marshal(delta)), &d2); err != nil {
			t.Fatal(err)
		}
		d2.Apply(&base)
		if got := marshal(base); got != want {
			t.Fatalf("batch %d: delta-applied state diverged:\n%s\nvs\n%s", batch, got, want)
		}
		if err := json.Unmarshal([]byte(want), &base); err != nil {
			t.Fatal(err)
		}
	}
	if _, dirty := d.CutDelta(); dirty {
		t.Fatal("quiescent cut reported dirty")
	}

	// A duplicate-only batch: no index adds, stats moved — still dirty.
	d.Check("pastebin/dup2", "dox body 0 0", "")
	delta, dirty := d.CutDelta()
	if !dirty {
		t.Fatal("stats-only change not marked dirty")
	}
	if len(delta.AddedBodies) != 0 || len(delta.AddedAccounts) != 0 {
		t.Fatalf("duplicate check added index entries: %+v", delta)
	}

	// Restore resets the journal and the stats watermark.
	saved := d.Snapshot()
	if err := d.Restore(saved); err != nil {
		t.Fatal(err)
	}
	if delta, dirty := d.CutDelta(); dirty || len(delta.AddedBodies) > 0 {
		t.Fatalf("journal leaked across Restore: dirty=%v", dirty)
	}
}
