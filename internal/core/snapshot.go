// Durable-study support: versioned snapshots of every stateful pipeline
// component, a rolling commit-log digest, and the resume path that makes a
// killed run bit-identical to an uninterrupted one.
//
// Snapshots happen only at study-day boundaries. Mid-day state (a half
// polled source, an unsorted batch) is never persisted: the batch sort and
// the ordered commit stage are what make results independent of
// Parallelism, and both operate on whole days. A crash between boundaries
// loses nothing — the crawlers commit cursors only after a body is in
// hand, so a re-poll after restore re-collects exactly the uncommitted
// tail.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"doxmeter/internal/crawler"
	"doxmeter/internal/extract"
	"doxmeter/internal/geo"
	"doxmeter/internal/label"
	"doxmeter/internal/netid"
	"doxmeter/internal/store"
)

// GeoOutcome is the precomputed §4.1 IP-vs-postal comparison for one dox.
// It is derived at commit time (while the raw text is still in memory) so
// ValidateGeo works identically on fresh and resumed studies without the
// checkpoint ever storing an IP address.
type GeoOutcome int

const (
	GeoNoIP      GeoOutcome = iota // no IP disclosed; never sampled
	GeoNoAddress                   // IP but no postal address label
	GeoNoPostal                    // address label but no recoverable region+city
	GeoNoLocate                    // IP outside the geolocation database
	GeoExactCity
	GeoSameState
	GeoAdjacent
	GeoFar
)

// geoOutcome classifies one dox per §4.1. Pure in (text, labels,
// extraction) given the study's fixed geo database.
func (s *Study) geoOutcome(text string, l label.Labels, ex *extract.Extraction) GeoOutcome {
	if ex == nil || len(ex.IPs) == 0 {
		return GeoNoIP
	}
	if !l.Address {
		return GeoNoAddress
	}
	db := s.World.Geo
	region, city, ok := postalRegion(text, db)
	if !ok {
		return GeoNoPostal
	}
	loc, ok := db.Lookup(ex.IPs[0])
	if !ok {
		return GeoNoLocate
	}
	switch db.Compare(loc, region, city) {
	case geo.ProximityExactCity:
		return GeoExactCity
	case geo.ProximitySame:
		return GeoSameState
	case geo.ProximityAdjacent:
		return GeoAdjacent
	default:
		return GeoFar
	}
}

// Snapshot component keys. The service/* components exist only when a
// stream.Fanout is attached (StudyConfig.Stream.Fanout).
const (
	compCore      = "core"
	compDedup     = "dedup"
	compMonitor   = "monitor"
	compPastebin  = "crawler/pastebin"
	compNotify    = "service/notify"
	compWatchlist = "service/watchlist"
	compFeed      = "service/feed"
)

// doxState is the persisted form of a DoxRecord. Per the §3.3 discipline
// it carries derived labels, brackets and digests — never the dox text,
// and none of the extracted phones/emails/IPs/names. OSN usernames and
// credit aliases are the paper's explicit plaintext exceptions (the
// monitor keeps scraping the former; Figure 2 graphs the latter).
type doxState struct {
	DocID         string            `json:"doc_id"`
	Site          string            `json:"site"`
	Posted        time.Time         `json:"posted"`
	Period        int               `json:"period"`
	TextDigest    string            `json:"text_digest"`
	Labels        label.Labels      `json:"labels"`
	Geo           GeoOutcome        `json:"geo"`
	Accounts      map[string]string `json:"accounts,omitempty"` // network slug → username
	CreditAliases []string          `json:"credit_aliases,omitempty"`
	CreditHandles []string          `json:"credit_handles,omitempty"`
}

type p1DocState struct {
	ID     string    `json:"id"`
	Posted time.Time `json:"posted"`
}

// coreState is the study's own snapshot component: funnel counters, dox
// records and the rolling digest.
type coreState struct {
	Collected       int                  `json:"collected"`
	CollectedBySite map[string]int       `json:"collected_by_site"`
	Flagged         [3]int               `json:"flagged_by_period"`
	PollFailures    map[string]int       `json:"poll_failures,omitempty"`
	MonitorFailures int                  `json:"monitor_failures,omitempty"`
	DaysDone        int                  `json:"days_done"`
	RunDigest       string               `json:"run_digest"`
	FlaggedP1       []string             `json:"flagged_p1,omitempty"`
	PastebinP1      []p1DocState         `json:"pastebin_p1,omitempty"`
	CollectedIDs    map[string]time.Time `json:"collected_ids,omitempty"`
	Doxes           []doxState           `json:"doxes"`
}

// ckpt returns the active checkpoint config, or nil when the study is not
// durable.
func (s *Study) ckpt() *CheckpointConfig {
	if ck := s.Cfg.Checkpoint; ck != nil && ck.Store != nil {
		return ck
	}
	return nil
}

func (s *Study) runDigestHex() string { return hex.EncodeToString(s.runDigest[:]) }

// RunDigest returns the rolling run digest in hex: a chained SHA-256 over
// every day's commit stream (document identities + verdicts, in commit
// order). Two runs over the same world/seed/schedule — with services
// attached or not, killed and resumed or not — produce the same digest. Only
// durable studies (Checkpoint set) fold day digests; for others this is
// the zero digest.
func (s *Study) RunDigest() string { return s.runDigestHex() }

// foldDayDigest chains the just-finished day's commit digest into the
// rolling run digest.
func (s *Study) foldDayDigest() {
	if s.dayHasher == nil {
		return
	}
	h := sha256.New()
	h.Write(s.runDigest[:])
	h.Write(s.dayHasher.Sum(nil))
	copy(s.runDigest[:], h.Sum(nil))
	s.dayHasher = nil
}

func (s *Study) coreState() coreState {
	st := coreState{
		Collected:       s.Collected,
		CollectedBySite: s.CollectedBySite,
		Flagged:         s.FlaggedByPeriod,
		PollFailures:    s.PollFailures,
		MonitorFailures: s.MonitorFailures,
		DaysDone:        s.daysDone,
		RunDigest:       s.runDigestHex(),
		CollectedIDs:    s.CollectedIDs,
	}
	st.FlaggedP1 = make([]string, 0, len(s.flaggedP1))
	for id := range s.flaggedP1 {
		st.FlaggedP1 = append(st.FlaggedP1, id)
	}
	sort.Strings(st.FlaggedP1)
	for _, d := range s.pastebinP1Docs {
		st.PastebinP1 = append(st.PastebinP1, p1DocState{ID: d.ID, Posted: d.Posted})
	}
	st.Doxes = make([]doxState, 0, len(s.Doxes))
	for _, d := range s.Doxes {
		st.Doxes = append(st.Doxes, doxStateOf(d))
	}
	return st
}

// doxStateOf projects one DoxRecord into its persisted (§3.3-safe) form.
func doxStateOf(d *DoxRecord) doxState {
	ds := doxState{
		DocID: d.DocID, Site: d.Site, Posted: d.Posted, Period: d.Period,
		TextDigest: d.TextDigest, Labels: d.Labels, Geo: d.Geo,
	}
	if ex := d.Extraction; ex != nil {
		if len(ex.Accounts) > 0 {
			ds.Accounts = make(map[string]string, len(ex.Accounts))
			for n, u := range ex.Accounts {
				ds.Accounts[n.Slug()] = u
			}
		}
		ds.CreditAliases = ex.CreditAliases
		ds.CreditHandles = ex.CreditHandles
	}
	return ds
}

// Snapshot assembles a full checkpoint of the study at the given day
// boundary by iterating the component registry: core funnel state, dedup
// indexes, monitor histories, every crawler's cursor/seen state, and any
// attached mitigation services (whose snapshots obey the same §3.3
// discipline: salted digests and hashes only).
func (s *Study) Snapshot(periodNo, day int) (*store.Snapshot, error) {
	comps := make(map[string]json.RawMessage, s.registry.Len())
	if err := s.registry.Each(func(c store.Component, _ bool) error {
		b, err := c.Snapshot()
		if err != nil {
			return err
		}
		comps[c.Name()] = b
		return nil
	}); err != nil {
		return nil, err
	}
	return &store.Snapshot{
		Seq: s.ckptSeq,
		Meta: store.Meta{
			Seed: s.Cfg.Seed, Scale: s.Cfg.Scale,
			VirtualTime: s.Clock.Now(), Period: periodNo, Day: day,
		},
		Components: comps,
	}, nil
}

// restoreCoreState installs the study's own component payload: it
// validates the digest and dox records, then replaces the funnel state.
// Registered as the core component's restore hook.
func (s *Study) restoreCoreState(cs coreState) error {
	digest, err := hex.DecodeString(cs.RunDigest)
	if err != nil || len(digest) != len(s.runDigest) {
		return fmt.Errorf("core: restore: bad run digest %q", cs.RunDigest)
	}
	doxes := make([]*DoxRecord, 0, len(cs.Doxes))
	for _, ds := range cs.Doxes {
		ex := &extract.Extraction{
			Accounts:      make(map[netid.Network]string, len(ds.Accounts)),
			CreditAliases: ds.CreditAliases,
			CreditHandles: ds.CreditHandles,
		}
		for slug, user := range ds.Accounts {
			n, ok := netid.FromSlug(slug)
			if !ok {
				return fmt.Errorf("core: restore: unknown network slug %q", slug)
			}
			ex.Accounts[n] = user
		}
		doxes = append(doxes, &DoxRecord{
			DocID: ds.DocID, Site: ds.Site, Posted: ds.Posted, Period: ds.Period,
			Extraction: ex, TextDigest: ds.TextDigest, Labels: ds.Labels, Geo: ds.Geo,
		})
	}
	s.Collected = cs.Collected
	s.CollectedBySite = cs.CollectedBySite
	if s.CollectedBySite == nil {
		s.CollectedBySite = make(map[string]int)
	}
	s.FlaggedByPeriod = cs.Flagged
	s.PollFailures = cs.PollFailures
	if s.PollFailures == nil {
		s.PollFailures = make(map[string]int)
	}
	s.MonitorFailures = cs.MonitorFailures
	s.daysDone = cs.DaysDone
	copy(s.runDigest[:], digest)
	s.flaggedP1 = make(map[string]bool, len(cs.FlaggedP1))
	for _, id := range cs.FlaggedP1 {
		s.flaggedP1[id] = true
	}
	s.pastebinP1Docs = nil
	for _, d := range cs.PastebinP1 {
		s.pastebinP1Docs = append(s.pastebinP1Docs, crawler.Doc{Site: "pastebin", ID: d.ID, Posted: d.Posted})
	}
	if s.Cfg.RecordCollectedIDs {
		s.CollectedIDs = cs.CollectedIDs
		if s.CollectedIDs == nil {
			s.CollectedIDs = make(map[string]time.Time)
		}
	}
	s.Doxes = doxes
	return nil
}

// restorePastebin installs the pastebin crawler's component payload. The
// cursor is the Unix second of the newest paste listed, so it lies in
// [0, the snapshot's virtual time], which RestoreSnapshot sets on the
// clock before restoring components; a later cursor would skip every
// paste posted before it.
func (s *Study) restorePastebin(st crawler.PastebinState) error {
	if now := s.Clock.Now().Unix(); st.Cursor < 0 || st.Cursor > now {
		return fmt.Errorf("core: restore: pastebin cursor %d outside [0, %d]", st.Cursor, now)
	}
	s.crawlers.pastebin.Restore(st)
	return nil
}

// RestoreSnapshot loads a checkpoint into a freshly built study. The study
// must have been constructed with the same Seed and Scale; everything else
// (world, corpus, classifier, services) is already rebuilt deterministically
// by NewStudy, so only the mutable pipeline state — the component registry —
// is restored here. Optional components (attached services) absent from the
// snapshot simply start fresh.
func (s *Study) RestoreSnapshot(snap *store.Snapshot) error {
	if snap == nil {
		return errors.New("core: restore: nil snapshot")
	}
	if snap.Meta.Seed != s.Cfg.Seed {
		return fmt.Errorf("core: restore: snapshot seed %d, study seed %d", snap.Meta.Seed, s.Cfg.Seed)
	}
	if snap.Meta.Scale != s.Cfg.Scale {
		return fmt.Errorf("core: restore: snapshot scale %v, study scale %v", snap.Meta.Scale, s.Cfg.Scale)
	}
	// A fresh study's clock sits at Period1.Start; every snapshot is at or
	// after that. Restoring into an already-advanced study is refused.
	now := s.Clock.Now()
	if snap.Meta.VirtualTime.Before(now) {
		return fmt.Errorf("core: restore: snapshot time %v is before the study clock %v", snap.Meta.VirtualTime, now)
	}
	// Every required component must be present before anything mutates.
	if err := s.registry.Each(func(c store.Component, optional bool) error {
		if _, ok := snap.Components[c.Name()]; !ok && !optional {
			return fmt.Errorf("core: restore: snapshot missing component %q", c.Name())
		}
		return nil
	}); err != nil {
		return err
	}
	// Components restore against the snapshot's virtual time (the
	// pastebin cursor is range-checked against it).
	if snap.Meta.VirtualTime.After(now) {
		s.Clock.Set(snap.Meta.VirtualTime)
	}
	if err := s.registry.Each(func(c store.Component, _ bool) error {
		raw, ok := snap.Components[c.Name()]
		if !ok {
			return nil // optional component, absent from this snapshot
		}
		return c.Restore(raw)
	}); err != nil {
		return err
	}
	s.ckptSeq = snap.Seq
	s.resumed = true
	s.resumeP = snap.Meta.Period
	s.resumeDay = snap.Meta.Day
	// The restored state is the new delta base: the next cut diffs
	// against it, not against anything journaled before the restore.
	// (Provider Restores reset their own journals.)
	s.resetCoreJournal()
	s.m.reseed(s)
	return nil
}

// ResumeInfo reports where a resumed study picked up.
type ResumeInfo struct {
	Resumed     bool
	Period      int
	Day         int
	Seq         uint64
	VirtualTime time.Time
}

// Resume loads the latest snapshot from the configured checkpoint store
// into a freshly built study, cross-checking the commit log's rolling
// digest. A fresh state dir is not an error: it returns {Resumed: false}
// and Run starts from the beginning. Call between NewStudy and Run.
func (s *Study) Resume() (ResumeInfo, error) {
	ck := s.ckpt()
	if ck == nil {
		return ResumeInfo{}, errors.New("core: Resume requires StudyConfig.Checkpoint")
	}
	start := time.Now()
	var snap *store.Snapshot
	var err error
	chainLen := 0
	if ds, ok := ck.Store.(store.DeltaStore); ok {
		// Replay full-snapshot + delta chain. A dir written in full mode
		// simply yields an empty chain; a dir written in delta mode
		// resumed by a full-mode study still reconstructs the tip.
		var base *store.Snapshot
		var deltas []*store.Delta
		base, deltas, err = ds.LoadChain()
		if err == nil {
			snap, err = ApplyDeltaChain(base, deltas)
			chainLen = len(deltas)
		}
	} else {
		snap, err = ck.Store.LoadSnapshot()
	}
	if errors.Is(err, store.ErrNoSnapshot) {
		return ResumeInfo{}, nil
	}
	if err != nil {
		return ResumeInfo{}, err
	}
	if err := s.RestoreSnapshot(snap); err != nil {
		return ResumeInfo{}, err
	}
	if s.deltaMode {
		s.haveBase = true
		s.cutsSinceFull = chainLen
		s.m.chainLength.Set(float64(chainLen))
	}
	s.m.checkpointRestore.Observe(time.Since(start).Seconds())
	// Cross-check against the commit log: the day entry matching the
	// snapshot must carry the same rolling digest, or the state dir
	// belongs to a different run.
	if entries, err := ck.Store.Entries(); err == nil {
		for i := len(entries) - 1; i >= 0; i-- {
			e := entries[i]
			if e.Kind != store.KindDay || e.Period != snap.Meta.Period || e.Day != snap.Meta.Day {
				continue
			}
			if e.Digest != "" && e.Digest != s.runDigestHex() {
				return ResumeInfo{}, fmt.Errorf(
					"core: resume: commit-log digest %s disagrees with snapshot digest %s at period %d day %d",
					e.Digest, s.runDigestHex(), snap.Meta.Period, snap.Meta.Day)
			}
			break
		}
	}
	return ResumeInfo{
		Resumed: true, Period: snap.Meta.Period, Day: snap.Meta.Day,
		Seq: snap.Seq, VirtualTime: snap.Meta.VirtualTime,
	}, nil
}

// appendLifecycle writes a run-start/resume/stop record; a no-op for
// non-durable studies.
func (s *Study) appendLifecycle(kind string, periodNo, day int) error {
	ck := s.ckpt()
	if ck == nil {
		return nil
	}
	return ck.Store.AppendEntry(store.Entry{
		Kind: kind, Seq: s.ckptSeq, Period: periodNo, Day: day, VTime: s.Clock.Now(),
	})
}

// appendDayEntry records one committed study day and its rolling digest.
func (s *Study) appendDayEntry(periodNo, day int) error {
	return s.ckpt().Store.AppendEntry(store.Entry{
		Kind: store.KindDay, Seq: s.ckptSeq, Period: periodNo, Day: day,
		VTime:     s.Clock.Now(),
		Collected: s.Collected,
		Flagged:   s.FlaggedByPeriod[1] + s.FlaggedByPeriod[2],
		Doxes:     len(s.Doxes),
		Digest:    s.runDigestHex(),
	})
}

// writeCheckpoint persists a checkpoint at the current day boundary and
// logs it. In delta mode a cut with an anchored chain shorter than
// CompactEvery writes an incremental delta; the first cut and every
// CompactEvery-th thereafter write a full snapshot (compaction), which
// bounds the chain any resume has to replay.
func (s *Study) writeCheckpoint(periodNo, day int) error {
	ck := s.ckpt()
	s.ckptSeq++
	if s.deltaMode && s.haveBase && s.cutsSinceFull < ck.CompactEvery {
		if ds, ok := ck.Store.(store.DeltaStore); ok {
			return s.writeDeltaCheckpoint(ds, periodNo, day)
		}
	}
	snap, err := s.Snapshot(periodNo, day)
	if err != nil {
		return err
	}
	start := time.Now()
	n, err := ck.Store.SaveSnapshot(snap)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	s.m.checkpointWrite.Observe(time.Since(start).Seconds())
	s.m.checkpointBytes.Observe(float64(n))
	s.CheckpointsWritten++
	if s.deltaMode {
		// The full image covers every journaled mutation; drain so the
		// next delta diffs against this cut, and re-anchor the chain.
		s.drainJournals()
		s.haveBase = true
		s.cutsSinceFull = 0
		s.m.chainLength.Set(0)
	}
	return ck.Store.AppendEntry(store.Entry{
		Kind: store.KindSnapshot, Seq: s.ckptSeq, Period: periodNo, Day: day,
		VTime: s.Clock.Now(), Digest: s.runDigestHex(), Bytes: n,
	})
}

// writeDeltaCheckpoint persists one incremental cut: a diff against the
// previous cut (full or delta), draining every provider journal.
func (s *Study) writeDeltaCheckpoint(ds store.DeltaStore, periodNo, day int) error {
	d, err := s.buildDelta(periodNo, day)
	if err != nil {
		return err
	}
	start := time.Now()
	n, err := ds.SaveDelta(d)
	if err != nil {
		return fmt.Errorf("core: delta checkpoint: %w", err)
	}
	s.m.deltaWrite.Observe(time.Since(start).Seconds())
	s.m.deltaBytes.Observe(float64(n))
	s.cutsSinceFull++
	s.m.chainLength.Set(float64(s.cutsSinceFull))
	s.CheckpointsWritten++
	return ds.AppendEntry(store.Entry{
		Kind: store.KindDelta, Seq: s.ckptSeq, Base: d.BaseSeq, Period: periodNo, Day: day,
		VTime: s.Clock.Now(), Digest: s.runDigestHex(), Bytes: n,
	})
}
