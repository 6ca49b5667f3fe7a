// Incremental checkpoints: in CheckpointDelta mode the study persists a
// full snapshot only at chain anchors and a compact diff against the
// previous cut in between. Each provider journals its mutations (behind
// SetDeltaJournal), so an unchanged component serializes as a bare
// reference and a changed one as just its adds since the last cut.
//
// The invariant, enforced by differential tests at every layer: applying
// a delta chain to its base reproduces, byte for byte, the full snapshot
// an uninterrupted run would have written at the chain tip. That holds
// because every provider keeps its persisted collections in a canonical
// order (sorted slices, JSON's sorted map keys) and every delta apply
// preserves that order.
package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"doxmeter/internal/store"
)

// coreStateDelta is the study's own component diff. The funnel counters
// and digest are tiny and change every day, so they travel wholesale; the
// unbounded histories (dox records, period-1 docs, collected IDs) travel
// as adds only — they are append-only between cuts.
type coreStateDelta struct {
	Collected       int                  `json:"collected"`
	CollectedBySite map[string]int       `json:"collected_by_site"`
	Flagged         [3]int               `json:"flagged_by_period"`
	PollFailures    map[string]int       `json:"poll_failures,omitempty"`
	MonitorFailures int                  `json:"monitor_failures,omitempty"`
	DaysDone        int                  `json:"days_done"`
	RunDigest       string               `json:"run_digest"`
	AddedFlaggedP1  []string             `json:"added_flagged_p1,omitempty"`
	AddedPastebinP1 []p1DocState         `json:"added_pastebin_p1,omitempty"`
	AddedCollected  map[string]time.Time `json:"added_collected_ids,omitempty"`
	AddedDoxes      []doxState           `json:"added_doxes,omitempty"`
}

// coreStateDelta cuts the study's own diff and re-anchors the core
// journal at the current state.
func (s *Study) coreStateDelta() coreStateDelta {
	d := coreStateDelta{
		Collected:       s.Collected,
		CollectedBySite: s.CollectedBySite,
		Flagged:         s.FlaggedByPeriod,
		PollFailures:    s.PollFailures,
		MonitorFailures: s.MonitorFailures,
		DaysDone:        s.daysDone,
		RunDigest:       s.runDigestHex(),
	}
	if len(s.addedFlaggedP1) > 0 {
		d.AddedFlaggedP1 = append([]string(nil), s.addedFlaggedP1...)
		sort.Strings(d.AddedFlaggedP1)
	}
	for _, doc := range s.pastebinP1Docs[s.ckptP1N:] {
		d.AddedPastebinP1 = append(d.AddedPastebinP1, p1DocState{ID: doc.ID, Posted: doc.Posted})
	}
	if len(s.addedCollectedIDs) > 0 {
		d.AddedCollected = make(map[string]time.Time, len(s.addedCollectedIDs))
		for _, k := range s.addedCollectedIDs {
			d.AddedCollected[k] = s.CollectedIDs[k]
		}
	}
	for _, rec := range s.Doxes[s.ckptDoxN:] {
		d.AddedDoxes = append(d.AddedDoxes, doxStateOf(rec))
	}
	s.resetCoreJournal()
	return d
}

// resetCoreJournal re-anchors the core journal: the next cut diffs
// against the study state as of now. Called after every cut (the full
// image or the delta covers everything up to this point) and after a
// restore (the restored state is the new base).
func (s *Study) resetCoreJournal() {
	s.addedFlaggedP1 = nil
	s.addedCollectedIDs = nil
	s.ckptDoxN = len(s.Doxes)
	s.ckptP1N = len(s.pastebinP1Docs)
}

// Apply reconstructs the coreState at the delta's cut from the state at
// its base. Mirrors coreState(): sorted FlaggedP1, commit-ordered
// PastebinP1 and Doxes.
func (d coreStateDelta) Apply(st *coreState) error {
	st.Collected = d.Collected
	st.CollectedBySite = d.CollectedBySite
	st.Flagged = d.Flagged
	st.PollFailures = d.PollFailures
	st.MonitorFailures = d.MonitorFailures
	st.DaysDone = d.DaysDone
	st.RunDigest = d.RunDigest
	st.FlaggedP1 = mergeSortedUnique(st.FlaggedP1, d.AddedFlaggedP1)
	st.PastebinP1 = append(st.PastebinP1, d.AddedPastebinP1...)
	if len(d.AddedCollected) > 0 {
		if st.CollectedIDs == nil {
			st.CollectedIDs = make(map[string]time.Time, len(d.AddedCollected))
		}
		for k, v := range d.AddedCollected {
			st.CollectedIDs[k] = v
		}
	}
	st.Doxes = append(st.Doxes, d.AddedDoxes...)
	return nil
}

// mergeSortedUnique merges two sorted string slices, dropping duplicates.
// Returns a unchanged when b is empty, preserving its nil-ness.
func mergeSortedUnique(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// drainJournals cuts and discards every component journal, re-anchoring
// all of them at the current state. Used by full cuts: the image covers
// everything, so pending journal entries must not leak into the next
// delta. Only the re-anchoring matters, so a discarded patch's error does
// too.
func (s *Study) drainJournals() {
	for _, c := range s.components {
		_, _, _ = c.cut()
	}
}

// buildDelta assembles the incremental checkpoint for the current cut by
// iterating the component table: each component cuts its journal
// (OpPatch when dirty, OpRef when clean; the core journal is always
// dirty — days_done and the run digest advance every day). A component
// whose state the chain does not hold yet — a service attached after the
// chain's anchor was cut — travels whole once (OpFull), since there is
// no base to patch. Its journal is drained before its snapshot is taken,
// so a mutation racing with the cut (an HTTP subscribe) lands in the
// payload, the next patch or both, never in neither; every delta form
// is idempotent under such a repeat.
func (s *Study) buildDelta(periodNo, day int) (*store.Delta, error) {
	comps := make(map[string]store.ComponentDelta, len(s.components))
	for _, c := range s.components {
		if !s.inChain[c.name] {
			if _, _, err := c.cut(); err != nil {
				return nil, err
			}
			b, err := c.snapshot()
			if err != nil {
				return nil, err
			}
			comps[c.name] = store.ComponentDelta{Op: store.OpFull, Payload: b}
			s.inChain[c.name] = true
			continue
		}
		patch, dirty, err := c.cut()
		if err != nil {
			return nil, err
		}
		if !dirty {
			comps[c.name] = store.ComponentDelta{Op: store.OpRef}
			continue
		}
		comps[c.name] = store.ComponentDelta{Op: store.OpPatch, Payload: patch}
	}
	return &store.Delta{
		Seq:     s.ckptSeq,
		BaseSeq: s.ckptSeq - 1,
		Meta: store.Meta{
			Seed: s.Cfg.Seed, Scale: s.Cfg.Scale,
			VirtualTime: s.Clock.Now(), Period: periodNo, Day: day,
		},
		Components: comps,
	}, nil
}

// ApplyDeltaChain folds a delta chain into its base snapshot, producing
// the snapshot at the chain tip: byte for byte the full snapshot an
// uninterrupted run would have written there. A ref carries a payload
// forward and a full replaces it; a patched component is decoded once,
// patched by every delta in order and marshalled once at the tip (see
// fold), so replay is linear in the chain's bytes. An empty chain
// returns the base unchanged.
func ApplyDeltaChain(base *store.Snapshot, deltas []*store.Delta) (*store.Snapshot, error) {
	if len(deltas) == 0 {
		return base, nil
	}
	raw := make(map[string]json.RawMessage, len(base.Components))
	for key, b := range base.Components {
		raw[key] = b
	}
	folds := make(map[string]fold)
	seq := base.Seq
	for _, d := range deltas {
		if d.BaseSeq != seq {
			return nil, fmt.Errorf("core: delta seq %d applies to base %d, have %d", d.Seq, d.BaseSeq, seq)
		}
		for key := range raw {
			if _, ok := d.Components[key]; !ok {
				return nil, fmt.Errorf("core: delta %d drops component %q", d.Seq, key)
			}
		}
		for key, cd := range d.Components {
			_, have := raw[key]
			if !have && cd.Op != store.OpFull {
				// A component absent from the state must arrive whole:
				// there is nothing to reference or patch.
				return nil, fmt.Errorf("core: delta %d component %q: op %q without a base", d.Seq, key, cd.Op)
			}
			switch cd.Op {
			case store.OpRef:
			case store.OpFull:
				raw[key] = cd.Payload
				delete(folds, key)
			case store.OpPatch:
				f := folds[key]
				if f == nil {
					newFold, ok := foldFor(key)
					if !ok {
						return nil, fmt.Errorf("core: delta apply: unknown component %q", key)
					}
					var err error
					if f, err = newFold(raw[key]); err != nil {
						return nil, fmt.Errorf("core: delta apply %s: base: %w", key, err)
					}
					folds[key] = f
				}
				if err := f.apply(cd.Payload); err != nil {
					return nil, fmt.Errorf("core: delta %d apply %s: %w", d.Seq, key, err)
				}
			default:
				return nil, fmt.Errorf("core: delta %d component %q: unknown op %q", d.Seq, key, cd.Op)
			}
		}
		seq = d.Seq
	}
	for key, f := range folds {
		b, err := f.marshal()
		if err != nil {
			return nil, fmt.Errorf("core: delta apply %s: %w", key, err)
		}
		raw[key] = b
	}
	tip := deltas[len(deltas)-1]
	return &store.Snapshot{Seq: tip.Seq, Meta: tip.Meta, Components: raw}, nil
}
