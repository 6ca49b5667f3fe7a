// Package stream holds the alert fan-out of the paper's §7 service mode:
// the Detection a committed unique dox becomes, and the Fanout that
// delivers it to the notification registry, the threat-exchange feed and
// the anti-SWATing watchlist. The study calls Fanout.Deliver from its
// commit stage, on the driver goroutine and in commit order, so service
// state is a pure function of the document schedule.
package stream

import (
	"strings"
	"time"

	"doxmeter/internal/extract"
	"doxmeter/internal/feed"
	"doxmeter/internal/notify"
	"doxmeter/internal/watchlist"
)

// Detection is one committed, de-duplicated dox as handed to the alert
// fan-out: exactly what the §7 mitigation services consume, and nothing
// the §3.3 discipline forbids them to hold (the address line is passed
// through to the watchlist, which stores only its hash).
type Detection struct {
	Site        string
	DocID       string
	SeenAt      time.Time // virtual observation time (the commit day)
	Extraction  *extract.Extraction
	AddressLine string // first street-address line, "" when none labeled
}

// Fanout wires committed detections into the paper's three proposed
// mitigation services (§7.1–7.2). Any field may be nil.
type Fanout struct {
	Notify    *notify.Service
	Watchlist *watchlist.Watchlist
	Feed      *feed.Log
}

// Deliver ingests one detection into every attached service: the
// notification registry (§7.1), the threat-exchange feed (§7.1), and the
// anti-SWATing watchlist (§7.2).
func (f *Fanout) Deliver(d Detection) {
	if f.Notify != nil {
		f.Notify.Ingest(d.Site, d.SeenAt, d.Extraction)
	}
	if f.Feed != nil {
		f.Feed.Publish(d.Site, feed.URLFor(d.Site, d.DocID), d.SeenAt, d.Extraction.AccountRefs())
	}
	if f.Watchlist != nil {
		if d.AddressLine != "" {
			f.Watchlist.AddAddress(d.AddressLine, d.Site)
		}
		for _, p := range d.Extraction.Phones {
			f.Watchlist.AddPhone(p, d.Site)
		}
	}
}

// Janitor runs the periodic maintenance pass: purging expired watchlist
// entries. In service mode the study calls it once per virtual day, after
// the day's commits have delivered every alert, so the purge is
// deterministic.
func (f *Fanout) Janitor() int {
	if f.Watchlist == nil {
		return 0
	}
	return f.Watchlist.Purge()
}

// AddressLine pulls the "Address:"/"Lives at:" line value from dox text
// for watchlisting.
func AddressLine(text string) string {
	for _, prefix := range []string{"Address: ", "Lives at: "} {
		if i := strings.Index(text, prefix); i >= 0 {
			rest := text[i+len(prefix):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				return rest[:j]
			}
			return rest
		}
	}
	return ""
}
