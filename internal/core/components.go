// Component registry: every stateful pipeline layer is adapted onto
// store.Component once, in buildRegistry, and the snapshot, restore,
// delta-cut and journal-drain paths iterate that one table instead of
// hand-wiring seven special cases. Registration order fixes iteration
// order; snapshot payload bytes are unchanged by the indirection because
// each adapter marshals exactly the typed state the old code did.
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
	"doxmeter/internal/store"
	"doxmeter/internal/watchlist"
)

// comp adapts a typed snapshot provider (state type S) to
// store.Component. snap and restore close over the provider; journal
// drains its mutations for delta cuts.
type comp[S any] struct {
	name    string
	snap    func() S
	restore func(S) error
	journal store.Journal
}

func (c *comp[S]) Name() string { return c.name }

func (c *comp[S]) Snapshot() (json.RawMessage, error) {
	b, err := json.Marshal(c.snap())
	if err != nil {
		return nil, fmt.Errorf("core: snapshot component %s: %w", c.name, err)
	}
	return b, nil
}

func (c *comp[S]) Restore(raw json.RawMessage) error {
	var st S
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("core: restore component %s: %w", c.name, err)
	}
	return c.restore(st)
}

func (c *comp[S]) DeltaJournal() store.Journal { return c.journal }

// journal adapts a typed CutDelta provider to store.Journal.
type journal[D any] struct {
	name string
	set  func(on bool)
	cut  func() (D, bool)
}

func (j journal[D]) SetJournal(on bool) { j.set(on) }

func (j journal[D]) Cut() (json.RawMessage, bool, error) {
	d, dirty := j.cut()
	if !dirty {
		return nil, false, nil
	}
	b, err := json.Marshal(d)
	if err != nil {
		return nil, false, fmt.Errorf("core: delta component %s: %w", j.name, err)
	}
	return b, true, nil
}

// coreJournal is the study's own journal: the core component changes
// every cut (days_done and the run digest advance daily), so Cut is
// always dirty. Cutting also re-anchors the tracked-adds journal (see
// coreStateDelta), which is exactly what drainJournals needs on full
// cuts. Journaling is structural — the tracked fields exist regardless —
// so SetJournal has nothing to toggle.
type coreJournal struct{ s *Study }

func (coreJournal) SetJournal(bool) {}

func (j coreJournal) Cut() (json.RawMessage, bool, error) {
	b, err := json.Marshal(j.s.coreStateDelta())
	if err != nil {
		return nil, false, fmt.Errorf("core: delta component %s: %w", compCore, err)
	}
	return b, true, nil
}

// buildRegistry assembles the study's component table. Required
// components are the pipeline's own state; the mitigation services are
// optional (a snapshot written before a service attached leaves it
// starting fresh). Every component journals; a service whose state the
// chain does not hold yet travels whole once (see buildDelta).
func (s *Study) buildRegistry() error {
	r := store.NewRegistry()
	if err := r.Register(&comp[coreState]{
		name:    compCore,
		snap:    s.coreState,
		restore: s.restoreCoreState,
		journal: coreJournal{s},
	}); err != nil {
		return err
	}
	if err := r.Register(&comp[dedup.State]{
		name:    compDedup,
		snap:    s.Deduper.Snapshot,
		restore: s.Deduper.Restore,
		journal: journal[dedup.Delta]{name: compDedup, set: s.Deduper.SetDeltaJournal, cut: s.Deduper.CutDelta},
	}); err != nil {
		return err
	}
	if err := r.Register(&comp[monitor.State]{
		name:    compMonitor,
		snap:    s.Monitor.Snapshot,
		restore: s.Monitor.Restore,
		journal: journal[monitor.Delta]{name: compMonitor, set: s.Monitor.SetDeltaJournal, cut: s.Monitor.CutDelta},
	}); err != nil {
		return err
	}
	pb := s.crawlers.pastebin
	if err := r.Register(&comp[crawler.PastebinState]{
		name:    compPastebin,
		snap:    pb.Snapshot,
		restore: s.restorePastebin,
		journal: journal[crawler.PastebinDelta]{name: compPastebin, set: pb.SetDeltaJournal, cut: pb.CutDelta},
	}); err != nil {
		return err
	}
	for _, b := range s.crawlers.boards {
		b := b
		key := "crawler/" + b.SiteName
		if err := r.Register(&comp[crawler.BoardState]{
			name:    key,
			snap:    b.Snapshot,
			restore: func(st crawler.BoardState) error { b.Restore(st); return nil },
			journal: journal[crawler.BoardDelta]{name: key, set: b.SetDeltaJournal, cut: b.CutDelta},
		}); err != nil {
			return err
		}
	}
	if f := s.fanout; f != nil {
		if n := f.Notify; n != nil {
			if err := r.RegisterOptional(&comp[notify.State]{
				name: compNotify, snap: n.Snapshot, restore: n.Restore,
				journal: journal[notify.Delta]{name: compNotify, set: n.SetDeltaJournal, cut: n.CutDelta},
			}); err != nil {
				return err
			}
		}
		if w := f.Watchlist; w != nil {
			if err := r.RegisterOptional(&comp[watchlist.State]{
				name: compWatchlist, snap: w.Snapshot, restore: w.Restore,
				journal: journal[watchlist.Delta]{name: compWatchlist, set: w.SetDeltaJournal, cut: w.CutDelta},
			}); err != nil {
				return err
			}
		}
		if l := f.Feed; l != nil {
			if err := r.RegisterOptional(&comp[feed.State]{
				name: compFeed, snap: l.Snapshot, restore: l.Restore,
				journal: journal[feed.Delta]{name: compFeed, set: l.SetDeltaJournal, cut: l.CutDelta},
			}); err != nil {
				return err
			}
		}
	}
	s.registry = r
	return nil
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
