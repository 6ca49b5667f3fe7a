package stream

import (
	"strings"
	"testing"
	"time"

	"doxmeter/internal/extract"
	"doxmeter/internal/feed"
	"doxmeter/internal/notify"
	"doxmeter/internal/watchlist"
)

func TestFanoutDeliver(t *testing.T) {
	svc := notify.NewService("salt")
	svc.Subscribe("victim", notify.KindEmail, "victim@mail.com")
	now := time.Unix(5_000_000, 0).UTC()
	wl := watchlist.New(0, func() time.Time { return now })
	log := feed.NewLog()
	f := &Fanout{Notify: svc, Watchlist: wl, Feed: log}

	text := "Name: Jane Doe\nEmail: victim@mail.com\nPhone: 312-555-0142\nAddress: 42 Elm St, Chicago IL\nTwitter: janed"
	ex := extract.Extract(text)
	f.Deliver(Detection{
		Site: "pastebin", DocID: "abc", SeenAt: now,
		Extraction: ex, AddressLine: AddressLine(text),
	})

	if svc.Pending("victim") != 1 {
		t.Errorf("notify pending = %d", svc.Pending("victim"))
	}
	if _, listed := wl.CheckAddress("42 Elm St, Chicago IL"); !listed {
		t.Error("address not watchlisted")
	}
	if _, listed := wl.CheckPhone("312-555-0142"); !listed {
		t.Error("phone not watchlisted")
	}
	evs, err := log.After(0, 0)
	if err != nil || len(evs) != 1 || evs[0].Site != "pastebin" {
		t.Errorf("feed events = %v, err %v", evs, err)
	}
	if !strings.Contains(evs[0].URL, "abc") {
		t.Errorf("feed URL = %q", evs[0].URL)
	}

	// All-nil fanout is a no-op, not a panic.
	(&Fanout{}).Deliver(Detection{Extraction: ex})
	if (&Fanout{}).Janitor() != 0 {
		t.Error("nil-watchlist janitor purged something")
	}
}

func TestAddressLine(t *testing.T) {
	cases := []struct{ text, want string }{
		{"Name: X\nAddress: 42 Elm St\nPhone: 1", "42 Elm St"},
		{"Lives at: 9 Oak Ave", "9 Oak Ave"},
		{"no address here", ""},
		{"Address: trailing line", "trailing line"},
	}
	for _, c := range cases {
		if got := AddressLine(c.text); got != c.want {
			t.Errorf("AddressLine(%q) = %q, want %q", c.text, got, c.want)
		}
	}
}
