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

	"doxmeter/internal/crawler"
	"doxmeter/internal/dedup"
	"doxmeter/internal/feed"
	"doxmeter/internal/monitor"
	"doxmeter/internal/notify"
	"doxmeter/internal/store"
	"doxmeter/internal/watchlist"
)

// comp adapts a typed snapshot provider (state type S) to
// store.Component. snap and restore close over the provider; journal is
// nil for components that travel wholesale in every delta cut.
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

// journal adapts a typed (State, Delta) journaling provider to
// store.Journal. D's Apply is the same typed patch function the chain
// replay uses, so Journal.Apply and ApplyDeltaChain cannot drift apart.
type journal[S any, D interface{ Apply(*S) }] struct {
	name string
	set  func(on bool)
	cut  func() (D, bool)
}

func (j journal[S, D]) SetJournal(on bool) { j.set(on) }

func (j journal[S, D]) Cut() (json.RawMessage, bool, error) {
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

func (j journal[S, D]) Apply(base, patch json.RawMessage) (json.RawMessage, error) {
	return patchComponent[S, D](j.name, base, patch)
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

func (coreJournal) Apply(base, patch json.RawMessage) (json.RawMessage, error) {
	return patchComponent[coreState, coreStateDelta](compCore, base, patch)
}

// buildRegistry assembles the study's component table. Required
// components are the pipeline's own state; the mitigation services are
// optional (a snapshot written before a service attached leaves it
// starting fresh) and journal-less (they travel wholesale in deltas —
// their state is small and OpFull is valid even when the chain's anchor
// predates the attachment).
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
		journal: journal[dedup.State, dedup.Delta]{name: compDedup, set: s.Deduper.SetDeltaJournal, cut: s.Deduper.CutDelta},
	}); err != nil {
		return err
	}
	if err := r.Register(&comp[monitor.State]{
		name:    compMonitor,
		snap:    s.Monitor.Snapshot,
		restore: s.Monitor.Restore,
		journal: journal[monitor.State, monitor.Delta]{name: compMonitor, set: s.Monitor.SetDeltaJournal, cut: s.Monitor.CutDelta},
	}); err != nil {
		return err
	}
	pb := s.crawlers.pastebin
	if err := r.Register(&comp[crawler.PastebinState]{
		name:    compPastebin,
		snap:    pb.Snapshot,
		restore: s.restorePastebin,
		journal: journal[crawler.PastebinState, crawler.PastebinDelta]{name: compPastebin, set: pb.SetDeltaJournal, cut: pb.CutDelta},
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
			journal: journal[crawler.BoardState, crawler.BoardDelta]{name: key, set: b.SetDeltaJournal, cut: b.CutDelta},
		}); err != nil {
			return err
		}
	}
	if f := s.fanout; f != nil {
		if f.Notify != nil {
			if err := r.RegisterOptional(&comp[notify.State]{
				name: compNotify, snap: f.Notify.Snapshot, restore: f.Notify.Restore,
			}); err != nil {
				return err
			}
		}
		if f.Watchlist != nil {
			if err := r.RegisterOptional(&comp[watchlist.State]{
				name: compWatchlist, snap: f.Watchlist.Snapshot, restore: f.Watchlist.Restore,
			}); err != nil {
				return err
			}
		}
		if f.Feed != nil {
			if err := r.RegisterOptional(&comp[feed.State]{
				name: compFeed, snap: f.Feed.Snapshot, restore: f.Feed.Restore,
			}); err != nil {
				return err
			}
		}
	}
	s.registry = r
	return nil
}
