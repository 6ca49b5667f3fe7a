package core

import (
	"net/http"
	"time"

	"doxmeter/internal/faults"
	"doxmeter/internal/netid"
	"doxmeter/internal/osn"
	"doxmeter/internal/sim"
	"doxmeter/internal/simclock"
	"doxmeter/internal/sites"
	"doxmeter/internal/telemetry"
	"doxmeter/internal/textgen"
)

// Substrate is the simulated internet one study crawls: the synthetic
// world and its corpus on a virtual clock, the three text-sharing sites
// and the OSN universe, each served by one wrapped handler. A study
// reaches the handlers in-process; doxsites serves the same handlers over
// HTTP, so a real client sees the world the study sees.
type Substrate struct {
	World *sim.World
	Gen   *textgen.Generator
	Clock *simclock.Clock

	Universe *osn.Universe
	Pastebin *sites.Pastebin
	Fourchan *sites.BoardSite
	Eightch  *sites.BoardSite

	// Handlers maps service name (pastebin, fourchan, eightch, osn) to its
	// handler: the fault injector, if any, inside and the HTTP metrics
	// middleware outermost, so per-route counters see exactly what a
	// client sees, injected faults included.
	Handlers map[string]http.Handler
	// Injectors maps the same names to the fault injectors; empty without
	// a fault profile.
	Injectors map[string]*faults.Injector

	corpus *textgen.Corpus
}

// NewSubstrate builds the substrate for (seed, scale) and returns it with
// the classifier's training set, which it draws from the generator just
// before the corpus. It is deterministic for a fixed (seed, scale). prof,
// when non-nil, puts every service behind a fault injector seeded from its
// own derivation of the profile; hub, when non-nil, instruments the
// services and injectors and stamps its spans with the virtual clock.
func NewSubstrate(seed int64, scale float64, prof *faults.Profile, hub *telemetry.Hub) (*Substrate, []textgen.TrainingExample) {
	s := &Substrate{
		Clock:     simclock.NewClock(simclock.Period1.Start),
		Handlers:  make(map[string]http.Handler, 4),
		Injectors: make(map[string]*faults.Injector),
	}
	// The hub outlives the substrate, so a later one on the same hub
	// simply re-points this.
	if tr := hub.Trc(); tr != nil {
		tr.VirtualNow = s.Clock.Now
	}
	s.World = sim.NewWorld(sim.Default(seed, scale))
	s.Gen = textgen.New(s.World)
	// Both draws come from the generator's one RNG, so this order fixes
	// the corpus.
	training := s.Gen.TrainingSet()
	corpus := s.Gen.Corpus()
	s.corpus = corpus
	s.Pastebin = sites.NewPastebin(s.Clock, corpus.Streams[textgen.SitePastebin], sites.DefaultDeletionModel(), seed+1)
	s.Fourchan = sites.NewBoardSite(s.Clock, map[string][]textgen.Doc{
		"b":   corpus.Streams[textgen.SiteFourchanB],
		"pol": corpus.Streams[textgen.SiteFourchanPol],
	}, seed+2)
	s.Eightch = sites.NewBoardSite(s.Clock, map[string][]textgen.Doc{
		"pol":      corpus.Streams[textgen.SiteEightchPol],
		"baphomet": corpus.Streams[textgen.SiteEightchBapho],
	}, seed+3)

	// The OSN universe reacts to doxes when they are *posted*, independent
	// of whether any crawler finds them: scan ground truth for each
	// victim's first posting and inform the universe.
	s.Universe = osn.NewUniverse(s.Clock, s.World, seed+4)
	firstDox := map[int]time.Time{}
	for _, site := range textgen.AllSites() {
		for i := range corpus.Streams[site] {
			doc := &corpus.Streams[site][i]
			if !doc.IsDox() {
				continue
			}
			v := doc.Truth.Victim
			if t, ok := firstDox[v.ID]; !ok || doc.Posted.Before(t) {
				firstDox[v.ID] = doc.Posted
			}
		}
	}
	for _, v := range s.World.Victims {
		t, ok := firstDox[v.ID]
		if !ok {
			continue
		}
		// Fixed network order: RecordDox draws the owner's reaction from
		// the shared universe RNG, so map-order iteration here would make
		// reaction times differ from run to run.
		for _, n := range netid.All() {
			user, ok := v.OSN[n]
			if !ok {
				continue
			}
			ref := netid.Ref{Network: n, Username: user}
			s.Universe.RecordDox(ref, t)
			s.Universe.TriggerAbuse(ref, t)
		}
	}

	reg := hub.Reg()
	wrap := func(name string, h http.Handler, routeOf func(*http.Request) string) {
		if prof != nil {
			in := faults.NewInjector(prof.ForService(name), s.Clock, h)
			in.Instrument(reg, name)
			s.Injectors[name] = in
			h = in
		}
		s.Handlers[name] = telemetry.HTTPMetrics(reg, name, routeOf, h)
	}
	wrap("pastebin", s.Pastebin.Handler(), nil)
	wrap("fourchan", s.Fourchan.Handler(), nil)
	wrap("eightch", s.Eightch.Handler(), nil)
	wrap("osn", s.Universe.Handler(), osn.RouteLabel)
	return s, training
}

// Corpus exposes the generated document population (ground truth; used by
// graders and secondary-venue analyses, never by the pipeline itself).
func (s *Substrate) Corpus() *textgen.Corpus { return s.corpus }

// FaultCounters aggregates every injector's tallies; all-zero when fault
// injection is off.
func (s *Substrate) FaultCounters() faults.Counters {
	var agg faults.Counters
	for _, in := range s.Injectors {
		agg = agg.Plus(in.Counters())
	}
	return agg
}
