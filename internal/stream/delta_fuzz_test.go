package stream

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"doxmeter/internal/extract"
	"doxmeter/internal/feed"
	"doxmeter/internal/notify"
	"doxmeter/internal/watchlist"
)

// differential checks one service's delta against its snapshot: base is
// the state at the previous cut as a resume would have decoded it.
type differential[S any, D interface{ Apply(*S) error }] struct {
	name string
	snap func() S
	cut  func() (D, bool)
	base S
}

func marshalJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (c *differential[S, D]) reset(t *testing.T, b []byte) {
	t.Helper()
	var st S
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	c.base = st
}

// check cuts the service's delta, sends it through JSON, applies it to
// base and compares the result with the snapshot byte for byte. A clean
// cut must leave the state as the previous cut had it.
func (c *differential[S, D]) check(t *testing.T) {
	t.Helper()
	d, dirty := c.cut()
	want := marshalJSON(t, c.snap())
	before := marshalJSON(t, c.base)
	var sent D
	if err := json.Unmarshal(marshalJSON(t, d), &sent); err != nil {
		t.Fatal(err)
	}
	if err := sent.Apply(&c.base); err != nil {
		t.Fatalf("%s: apply: %v", c.name, err)
	}
	if got := marshalJSON(t, c.base); string(got) != string(want) {
		t.Fatalf("%s: delta-applied state diverged from the snapshot:\n%s\nvs\n%s", c.name, got, want)
	}
	if !dirty && string(before) != string(want) {
		t.Fatalf("%s: clean cut, but the state changed:\n%s\nvs\n%s", c.name, before, want)
	}
	c.reset(t, want)
}

// FuzzServiceDeltas drives the §7 services — notification registry,
// watchlist and feed, behind one Fanout — through byte-chosen
// operations: subscribe, unsubscribe, ingest a detection, drain a queue,
// a janitor purge after the clock moves, a burst of feed events past its
// retention, a clock step, and a checkpoint cut. The queue cap, the
// watchlist TTL and the feed retention are small so drops, expiries and
// compaction all happen. At every cut each service's delta, applied to
// the previous cut's state after a trip through JSON, must marshal
// byte-identically to the service's Snapshot.
func FuzzServiceDeltas(f *testing.F) {
	f.Add([]byte{0, 2, 7, 3, 7, 5, 7, 4, 7})
	f.Add([]byte{0, 8, 16, 2, 10, 18, 2, 2, 2, 7, 1, 9, 3, 11, 7, 6, 6, 76, 7})
	f.Add([]byte{2, 5, 7, 5, 5, 7, 252, 7, 2, 7})
	f.Add([]byte("subscribe ingest drain cut purge publish cut"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		now := time.Unix(1_500_000_000, 0).UTC()
		n := notify.NewService("fuzz-salt")
		n.SetPendingCap(3)
		wl := watchlist.New(48*time.Hour, func() time.Time { return now })
		lg := feed.NewLogRetention(4)
		fo := &Fanout{Notify: n, Watchlist: wl, Feed: lg}
		n.SetDeltaJournal(true)
		wl.SetDeltaJournal(true)
		lg.SetDeltaJournal(true)

		nd := &differential[notify.State, notify.Delta]{name: "notify", snap: n.Snapshot, cut: n.CutDelta}
		wd := &differential[watchlist.State, watchlist.Delta]{name: "watchlist", snap: wl.Snapshot, cut: wl.CutDelta}
		fd := &differential[feed.State, feed.Delta]{name: "feed", snap: lg.Snapshot, cut: lg.CutDelta}
		nd.reset(t, marshalJSON(t, n.Snapshot()))
		wd.reset(t, marshalJSON(t, wl.Snapshot()))
		fd.reset(t, marshalJSON(t, lg.Snapshot()))
		cut := func() {
			nd.check(t)
			wd.check(t)
			fd.check(t)
		}

		email := func(a int) string { return fmt.Sprintf("v%d@mail.example", a%4) }
		phone := func(a int) string { return fmt.Sprintf("312-555-01%02d", a%4) }
		for i, b := range ops {
			arg := int(b >> 3)
			sub := fmt.Sprintf("s%d", arg%3)
			switch b % 8 {
			case 0:
				n.Subscribe(sub, notify.KindEmail, email(arg))
				n.Subscribe(sub, notify.KindPhone, phone(arg/2))
			case 1:
				n.Unsubscribe(sub, notify.KindEmail, email(arg))
			case 2:
				fo.Deliver(Detection{
					Site: "pastebin", DocID: fmt.Sprintf("d%d", i), SeenAt: now,
					Extraction:  &extract.Extraction{Emails: []string{email(arg)}, Phones: []string{phone(arg / 4)}},
					AddressLine: fmt.Sprintf("%d Elm St", arg%3),
				})
			case 3:
				n.Drain(sub)
			case 4:
				now = now.Add(time.Duration(arg) * 6 * time.Hour)
				fo.Janitor()
			case 5:
				for k := 0; k <= lg.Retention(); k++ {
					lg.Publish("8ch", feed.URLFor("8ch", fmt.Sprintf("b%d-%d", i, k)), now, nil)
				}
			case 6:
				now = now.Add(time.Duration(arg) * time.Hour)
			case 7:
				cut()
			}
		}
		cut()
	})
}
