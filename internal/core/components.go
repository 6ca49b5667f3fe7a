// Checkpoint components: every stateful pipeline layer is adapted once,
// in buildComponents, into a component, and the snapshot, restore,
// delta-cut and journal-drain paths iterate that one table instead of
// hand-wiring seven special cases. Table order fixes iteration order;
// snapshot payload bytes are unchanged by the indirection because each
// adapter marshals exactly the typed state the old code did.
package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"doxmeter/internal/crawler"
	"doxmeter/internal/dedup"
	"doxmeter/internal/feed"
	"doxmeter/internal/monitor"
	"doxmeter/internal/notify"
	"doxmeter/internal/watchlist"
)

// component is one named unit of checkpointable state — the core funnel,
// the dedup index, the monitor schedule, a crawler's cursors, a §7
// service — speaking JSON payloads. newComponent builds one from its
// provider's typed state and patch methods.
type component struct {
	name string
	// optional components may be absent from a snapshot (a service
	// attached after the checkpoint was cut); restore leaves them fresh.
	optional bool
	snapshot func() (json.RawMessage, error)
	restore  func(json.RawMessage) error
	// journal switches the provider's delta journal on (delta mode only).
	journal func()
	// cut drains the journal: the patch since the previous cut and
	// whether anything changed. A clean component returns (nil, false,
	// nil) and travels as a reference in the delta.
	cut func() (patch json.RawMessage, dirty bool, err error)
}

// newComponent adapts a provider with state type S and patch type D:
// snap and restore speak its full state, cut drains its journal.
func newComponent[S, D any](name string, optional bool, snap func() S, restore func(S) error, journal func(), cut func() (D, bool)) component {
	return component{
		name:     name,
		optional: optional,
		snapshot: func() (json.RawMessage, error) {
			b, err := json.Marshal(snap())
			if err != nil {
				return nil, fmt.Errorf("core: snapshot component %s: %w", name, err)
			}
			return b, nil
		},
		restore: func(raw json.RawMessage) error {
			var st S
			if err := json.Unmarshal(raw, &st); err != nil {
				return fmt.Errorf("core: restore component %s: %w", name, err)
			}
			return restore(st)
		},
		journal: journal,
		cut: func() (json.RawMessage, bool, error) {
			d, dirty := cut()
			if !dirty {
				return nil, false, nil
			}
			b, err := json.Marshal(d)
			if err != nil {
				return nil, false, fmt.Errorf("core: delta component %s: %w", name, err)
			}
			return b, true, nil
		},
	}
}

// buildComponents assembles the study's component table. Required
// components are the pipeline's own state; the mitigation services are
// optional (a snapshot written before a service attached leaves it
// starting fresh). Every component journals; a service whose state the
// chain does not hold yet travels whole once (see buildDelta).
//
// The core component's journal is structural — the tracked fields exist
// regardless — so there is nothing to switch on, and it is always dirty
// (days_done and the run digest advance daily). Cutting it re-anchors
// the tracked-adds journal (see coreStateDelta), which is exactly what
// drainJournals needs on full cuts.
func (s *Study) buildComponents() {
	pb := s.crawlers.pastebin
	s.components = []component{
		newComponent(compCore, false, s.coreState, s.restoreCoreState, func() {},
			func() (coreStateDelta, bool) { return s.coreStateDelta(), true }),
		newComponent(compDedup, false, s.Deduper.Snapshot, s.Deduper.Restore, s.Deduper.SetDeltaJournal, s.Deduper.CutDelta),
		newComponent(compMonitor, false, s.Monitor.Snapshot, s.Monitor.Restore, s.Monitor.SetDeltaJournal, s.Monitor.CutDelta),
		newComponent(compPastebin, false, pb.Snapshot, s.restorePastebin, pb.SetDeltaJournal, pb.CutDelta),
	}
	for _, b := range s.crawlers.boards {
		b := b
		s.components = append(s.components, newComponent("crawler/"+b.SiteName, false, b.Snapshot,
			s.restoreBoard(b), b.SetDeltaJournal, b.CutDelta))
	}
	f := s.fanout
	if f == nil {
		return
	}
	if n := f.Notify; n != nil {
		s.components = append(s.components, newComponent(compNotify, true, n.Snapshot, n.Restore, n.SetDeltaJournal, n.CutDelta))
	}
	if w := f.Watchlist; w != nil {
		s.components = append(s.components, newComponent(compWatchlist, true, w.Snapshot, w.Restore, w.SetDeltaJournal, w.CutDelta))
	}
	if l := f.Feed; l != nil {
		s.components = append(s.components, newComponent(compFeed, true, l.Snapshot, l.Restore, l.SetDeltaJournal, l.CutDelta))
	}
}

// fold replays one component's patches during chain replay: it holds
// the component's state decoded once from the chain's base, applies
// each patch in order and marshals once at the tip, so replay costs one
// decode per patch instead of a decode and a marshal of the whole
// component per delta.
type fold interface {
	apply(patch json.RawMessage) error
	marshal() (json.RawMessage, error)
}

// typedFold is the fold of a component with state S and patch D.
type typedFold[S any, D interface{ Apply(*S) error }] struct{ st S }

func newFold[S any, D interface{ Apply(*S) error }](base json.RawMessage) (fold, error) {
	f := &typedFold[S, D]{}
	if err := json.Unmarshal(base, &f.st); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *typedFold[S, D]) apply(patch json.RawMessage) error {
	var d D
	if err := json.Unmarshal(patch, &d); err != nil {
		return err
	}
	return d.Apply(&f.st)
}

func (f *typedFold[S, D]) marshal() (json.RawMessage, error) { return json.Marshal(f.st) }

// foldFor is the one table from component key to typed fold: every
// component key a chain can carry a patch for, with its state and patch
// types.
func foldFor(key string) (func(base json.RawMessage) (fold, error), bool) {
	switch {
	case key == compCore:
		return newFold[coreState, coreStateDelta], true
	case key == compDedup:
		return newFold[dedup.State, dedup.Delta], true
	case key == compMonitor:
		return newFold[monitor.State, monitor.Delta], true
	case key == compPastebin:
		return newFold[crawler.PastebinState, crawler.PastebinDelta], true
	case strings.HasPrefix(key, "crawler/"):
		return newFold[crawler.BoardState, crawler.BoardDelta], true
	case key == compNotify:
		return newFold[notify.State, notify.Delta], true
	case key == compWatchlist:
		return newFold[watchlist.State, watchlist.Delta], true
	case key == compFeed:
		return newFold[feed.State, feed.Delta], true
	default:
		return nil, false
	}
}
