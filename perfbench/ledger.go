package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"doxmeter/internal/classifier"
	"doxmeter/internal/dedup"
	"doxmeter/internal/extract"
	"doxmeter/internal/htmltext"
	"doxmeter/internal/label"
	"doxmeter/internal/randutil"
	"doxmeter/internal/sim"
	"doxmeter/internal/simclock"
	"doxmeter/internal/stream"
	"doxmeter/internal/telemetry"
	"doxmeter/internal/textgen"
)

// layerMetrics is the per-layer ledger the traced pass prints, in order,
// with units. Names are <module>.<quantity>.
var layerMetrics = []struct{ name, unit string }{
	// Setup, timed by calling the same constructors NewStudy calls.
	{"sim.world_s", "s"},
	{"textgen.trainset_s", "s"},
	{"classifier.train_s", "s"},
	{"textgen.corpus_s", "s"},
	{"setup.rest_s", "s"},
	// Kernels, replayed over every collected document on one goroutine.
	{"htmltext.ns_per_doc", "ns/doc"},
	{"htmltext.allocs_per_doc", "allocs/doc"},
	{"classifier.ns_per_doc", "ns/doc"},
	{"classifier.allocs_per_doc", "allocs/doc"},
	{"core.prepare_s", "s"},
	// Crawl: stage time, fetcher counters, and the simulated sites.
	{"crawler.poll_s", "s"},
	{"crawler.requests", "count"},
	{"crawler.errors", "count"},
	{"crawler.retries", "count"},
	{"sites.handler_s", "s"},
	// Monitor sweep and the simulated OSN.
	{"monitor.sweep_s", "s"},
	{"monitor.scrapes", "count"},
	{"monitor.own_us_per_scrape", "us/scrape"},
	{"monitor.failed_sweeps", "count"},
	{"osn.handler_s", "s"},
	// Flagged-document kernels (replayed) and the commit stage.
	{"extract.ns_per_doc", "ns/doc"},
	{"extract.allocs_per_doc", "allocs/doc"},
	{"extract.docs", "count"},
	{"dedup.ns_per_doc", "ns/doc"},
	{"dedup.unique_ratio", "ratio"},
	{"label.ns_per_doc", "ns/doc"},
	{"core.commit_s", "s"},
	// Stream engine.
	{"stream.epoch_s", "s"},
	{"stream.stall_poll_s", "s"},
	{"stream.stall_prepare_s", "s"},
	{"stream.stall_commit_s", "s"},
	{"stream.backpressure", "count"},
	// Alert fan-out and the services behind it.
	{"fanout.us_per_alert", "us/alert"},
	{"notify.notified", "count"},
	{"feed.events", "count"},
	// Checkpoints: the study's cut building and the store under it.
	{"core.cut_s", "s"},
	{"store.write_s", "s"},
	{"store.delta_ms_p50", "ms"},
	{"store.full_ms_p50", "ms"},
	{"store.bytes", "bytes"},
	{"store.cuts", "count"},
	{"core.resume_s", "s"},
	{"store.load_s", "s"},
	{"store.restore_s", "s"},
	// Whole run.
	{"sim.share", "ratio"},
	{"run.coverage", "ratio"},
	{"run.unattributed_s", "s"},
	{"run.alloc_bytes_per_doc", "B/doc"},
	{"run.mallocs_per_doc", "mallocs/doc"},
	{"run.gc_cpu_fraction", "ratio"},
	{"trace.overhead", "ratio"},
	{"parallel.speedup", "ratio"},
}

// tracedRep runs one traced rep at Parallelism 1: the setup pieces, then
// the workload with a telemetry hub attached, then the kernel and fan-out
// replays over what it collected, then the resume.
//
// The ledger needs Parallelism 1. The simulated sites and OSN run inline on
// the goroutines that fetch from them, and the program reports only each
// request's duration. With one fetching goroutine the requests never
// overlap, so their summed duration is exactly the wall time they cover
// inside the stage that sends them, and each row below is exact and
// additive. At Parallelism 2 concurrent requests overlap by an unknown
// amount and no such split exists.
func tracedRep(w workload, seed int64, dir string) (*repResult, error) {
	layers := make(map[string]float64, len(layerMetrics))
	if err := timeSetup(w, seed, layers); err != nil {
		return nil, err
	}
	hub := telemetry.NewHub(0, nil)
	r, err := runRep(w, seed, repOptions{parallelism: 1, hub: hub, dir: dir})
	if err != nil {
		return nil, err
	}
	r.res.Layers = layers
	r.readHub(hub.Registry)
	r.replayKernels()
	r.replayFanout()
	if err := r.finish(resumeSamples); err != nil {
		return nil, err
	}
	return &r.res, nil
}

// timeSetup times NewStudy's four generator and training steps in the
// order NewStudy runs them, with the workload's seed and scale and the
// traced rep's Parallelism of 1.
func timeSetup(w workload, seed int64, layers map[string]float64) error {
	t := time.Now()
	world := sim.NewWorld(sim.Default(seed, w.scale))
	layers["sim.world_s"] = since(&t)
	gen := textgen.New(world)
	examples := gen.TrainingSet()
	layers["textgen.trainset_s"] = since(&t)
	exs := make([]classifier.Example, len(examples))
	for i, ex := range examples {
		exs[i] = classifier.Example{Body: ex.Body, IsDox: ex.IsDox}
	}
	// NewStudy trains on an RNG derived from its own, seeded seed^"core".
	rng := randutil.New(seed ^ 0x636f7265)
	t = time.Now()
	if _, _, err := classifier.TrainEval(randutil.Derive(rng, "train"), exs, classifier.Options{Parallelism: 1}); err != nil {
		return fmt.Errorf("training: %w", err)
	}
	layers["classifier.train_s"] = since(&t)
	gen.Corpus()
	layers["textgen.corpus_s"] = since(&t)
	runtime.GC()
	return nil
}

// since returns the seconds since *t and resets *t to now.
func since(t *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*t).Seconds()
	*t = now
	return d
}

// readHub reads the stages reachable only inside Run from the program's
// doxmeter_* series, and splits the traced Run's wall time into layers.
func (r *rep) readHub(reg *telemetry.Registry) {
	l, s := r.res.Layers, r.study
	stage := reg.SumBy("doxmeter_stage_seconds", "stage")
	handler := reg.SumBy("doxmeter_http_request_seconds", "service")
	l["crawler.poll_s"] = stage["poll"]
	l["core.commit_s"] = stage["commit"]
	l["monitor.sweep_s"] = stage["monitor"]
	l["stream.epoch_s"] = stage["epoch"]
	if r.w.service {
		// The stream engine overlaps poll, prepare and commit inside one
		// epoch; prepare is the shard's busy time over the documents.
		docStage := reg.SumBy("doxmeter_doc_stage_seconds", "stage")
		l["core.prepare_s"] = docStage["htmltext"] + docStage["classify"] + docStage["extract"]
	} else {
		l["core.prepare_s"] = stage["prepare"]
	}
	l["sites.handler_s"] = handler["pastebin"] + handler["fourchan"] + handler["eightch"]
	l["osn.handler_s"] = handler["osn"]
	for layer, family := range map[string]string{
		"crawler.requests": "doxmeter_fetch_requests_total",
		"crawler.errors":   "doxmeter_fetch_errors_total",
		"crawler.retries":  "doxmeter_fetch_retries_total",
	} {
		for site, v := range reg.SumBy(family, "site") {
			if site != "monitor" {
				l[layer] += v
			}
		}
	}
	l["monitor.scrapes"] = reg.Sum("doxmeter_monitor_scrapes_total")
	if n := l["monitor.scrapes"]; n > 0 {
		l["monitor.own_us_per_scrape"] = (l["monitor.sweep_s"] - l["osn.handler_s"]) / n * 1e6
	}
	l["monitor.failed_sweeps"] = float64(s.MonitorFailures)
	stall := reg.SumBy("doxmeter_stream_stall_seconds", "stage")
	l["stream.stall_poll_s"] = stall["poll"]
	l["stream.stall_prepare_s"] = stall["prepare"]
	l["stream.stall_commit_s"] = stall["commit"]
	l["stream.backpressure"] = reg.Sum("doxmeter_stream_backpressure_total")
	if st := r.store; st != nil {
		_, _, notified := r.svc.notify.Stats()
		l["notify.notified"] = float64(notified)
		l["feed.events"] = float64(r.svc.feed.LastSeq())
		// A day's checkpoint runs from its Progress line (the day's stages
		// are done) to the return of its cut: the study builds the cut,
		// then the store writes and logs it.
		var cut float64
		for k, d := range r.days.ends {
			if k < len(st.cutEnds) {
				cut += st.cutEnds[k].Sub(d.wall).Seconds()
			}
		}
		l["core.cut_s"] = cut - st.writeS
		l["store.write_s"] = st.writeS
		l["store.delta_ms_p50"] = median(st.deltaMS)
		l["store.full_ms_p50"] = median(st.fullMS)
		l["store.bytes"] = float64(st.bytes)
		l["store.cuts"] = float64(len(st.cutEnds))
	}
	var attributed float64
	for _, row := range ledgerRows(l, r.w.service) {
		attributed += row.s
	}
	l["sim.share"] = (l["sites.handler_s"] + l["osn.handler_s"]) / r.res.RunS
	l["run.coverage"] = attributed / r.res.RunS
	l["run.unattributed_s"] = r.res.RunS - attributed
}

type ledgerRow struct {
	name string
	s    float64
}

// ledgerRows splits a Parallelism 1 Run's wall time into additive rows,
// leaving out only the unattributed rest. The stages run one after another
// on each virtual day, so their wall times add up; the simulated handlers
// run inside the stage that fetches from them and have rows of their own,
// so those stages show their own time only.
func ledgerRows(l map[string]float64, service bool) []ledgerRow {
	rows := []ledgerRow{
		{"sites.handler_s (simulator)", l["sites.handler_s"]},
		{"osn.handler_s (simulator)", l["osn.handler_s"]},
	}
	if service {
		rows = append(rows, ledgerRow{"stream.epoch_s - sites", l["stream.epoch_s"] - l["sites.handler_s"]})
	} else {
		rows = append(rows,
			ledgerRow{"crawler.poll_s - sites", l["crawler.poll_s"] - l["sites.handler_s"]},
			ledgerRow{"core.prepare_s", l["core.prepare_s"]},
			ledgerRow{"core.commit_s", l["core.commit_s"]})
	}
	return append(rows,
		ledgerRow{"monitor.sweep_s - osn", l["monitor.sweep_s"] - l["osn.handler_s"]},
		ledgerRow{"core.cut_s", l["core.cut_s"]},
		ledgerRow{"store.write_s", l["store.write_s"]})
}

// replayDoc is one collected document as the kernels see it.
type replayDoc struct {
	site   string
	doc    *textgen.Doc
	day    int       // index of the virtual day that committed it
	posted time.Time // as the crawler reports it: whole seconds
	text   string
	ex     *extract.Extraction
}

// collectedDocs rebuilds, from the corpus and the crawl rules, every
// document the study committed, in commit order. Each virtual day the
// study polls pastebin and, in period 2, the four boards; a poll returns
// every document posted at or before the day's virtual time that no
// earlier poll returned, except pastes deleted by then. Paste keys are
// random and can repeat: the site serves a key's last paste, and the
// crawler takes each key once, at the first poll that lists it, dated by
// the listing. A day's documents commit sorted by (Posted to the second,
// Site, ID); board post numbers follow posting order. The result must
// match the study's per-site counts.
func (r *rep) collectedDocs() []replayDoc {
	s, ends := r.study, r.days.ends
	firstDay := func(from int, t time.Time) int {
		return from + sort.Search(len(ends)-from, func(k int) bool { return !ends[from+k].virtual.Before(t) })
	}
	p2 := firstDay(0, simclock.Period2.Start)
	var docs []replayDoc
	corpus := s.Corpus()
	for _, site := range textgen.AllSites() {
		stream := corpus.Streams[site]
		if site.IsBoard() {
			for i := range stream {
				d := &stream[i]
				if k := firstDay(p2, d.Posted); k < len(ends) {
					docs = append(docs, replayDoc{site: string(site), doc: d, day: k, posted: time.Unix(d.Posted.Unix(), 0)})
				}
			}
			continue
		}
		served := make(map[string]*textgen.Doc, len(stream))
		for i := range stream {
			served[stream[i].ID] = &stream[i]
		}
		listed := make(map[string]bool, len(stream))
		for i := range stream {
			d := &stream[i]
			if listed[d.ID] {
				continue
			}
			listed[d.ID] = true
			k := firstDay(0, d.Posted)
			if k == len(ends) || served[d.ID].Posted.After(ends[k].virtual) || s.Pastebin.IsDeleted(d.ID, ends[k].virtual) {
				continue
			}
			docs = append(docs, replayDoc{site: string(site), doc: served[d.ID], day: k, posted: time.Unix(d.Posted.Unix(), 0)})
		}
	}
	sort.Slice(docs, func(i, j int) bool {
		a, b := &docs[i], &docs[j]
		switch {
		case a.day != b.day:
			return a.day < b.day
		case !a.posted.Equal(b.posted):
			return a.posted.Before(b.posted)
		case a.site != b.site:
			return a.site < b.site
		case a.doc.Site.IsBoard() && !a.doc.Posted.Equal(b.doc.Posted):
			return a.doc.Posted.Before(b.doc.Posted)
		}
		return a.doc.ID < b.doc.ID
	})
	bySite := make(map[string]int)
	for _, d := range docs {
		bySite[d.site]++
	}
	for site, n := range s.CollectedBySite {
		if bySite[site] != n {
			r.res.problem("replay rebuilt %d %s documents, the study collected %d", bySite[site], site, n)
		}
	}
	return docs
}

// replayKernels replays every collected document, in the study's commit
// order, through the public kernel calls prepare and commit make, one
// kernel at a time on this goroutine: html→text, classify, and for the
// flagged documents extract, dedup and, for the unique ones, label. The
// replay must reproduce the study's flagged and unique counts.
func (r *rep) replayKernels() {
	s, l := r.study, r.res.Layers
	docs := r.collectedDocs()
	pass := func(layer string, n int, body func()) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		body()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		mallocs := m1.Mallocs - m0.Mallocs
		r.res.Replay = append(r.res.Replay, replayPass{Kernel: layer, Docs: n, Mallocs: mallocs})
		if n > 0 {
			l[layer+".ns_per_doc"] = float64(elapsed.Nanoseconds()) / float64(n)
			l[layer+".allocs_per_doc"] = float64(mallocs) / float64(n)
		}
	}
	pass("htmltext", len(docs), func() {
		for i := range docs {
			d := &docs[i]
			d.text = d.doc.Body
			if d.doc.Site.IsBoard() || htmltext.IsProbablyHTML(d.text) {
				d.text = htmltext.Convert(d.text)
			}
		}
	})
	var flagged []*replayDoc
	isDox := make([]bool, len(docs))
	pass("classifier", len(docs), func() {
		var res classifier.Result
		for i := range docs {
			s.Classifier.ScoreInto(docs[i].text, &res)
			isDox[i] = res.IsDox
		}
	})
	for i := range docs {
		if isDox[i] {
			flagged = append(flagged, &docs[i])
		}
	}
	pass("extract", len(flagged), func() {
		for _, d := range flagged {
			d.ex = extract.ExtractWith(d.text, s.Cfg.Extract)
		}
	})
	var unique []*replayDoc
	dd := dedup.New()
	pass("dedup", len(flagged), func() {
		for _, d := range flagged {
			if v, _ := dd.Check(d.site+"/"+d.doc.ID, d.text, d.ex.AccountSetKey()); v == dedup.Unique {
				unique = append(unique, d)
			}
		}
	})
	pass("label", len(unique), func() {
		for _, d := range unique {
			label.Apply(d.text)
		}
	})
	l["extract.docs"] = float64(len(flagged))
	if len(flagged) > 0 {
		l["dedup.unique_ratio"] = float64(len(unique)) / float64(len(flagged))
	}
	if want := s.FlaggedByPeriod[1] + s.FlaggedByPeriod[2]; len(flagged) != want {
		r.res.problem("kernel replay flagged %d documents, the study %d", len(flagged), want)
	}
	if len(unique) != len(s.Doxes) {
		r.res.problem("kernel replay found %d unique doxes, the study %d", len(unique), len(s.Doxes))
	}
}

// replayFanout times Fanout.Deliver per unique dox into a fresh service
// set with every victim subscribed.
func (r *rep) replayFanout() {
	s := r.study
	if len(s.Doxes) == 0 {
		return
	}
	sv := newServices(&r.study)
	sv.subscribeVictims(s)
	dets := make([]stream.Detection, len(s.Doxes))
	for i, d := range s.Doxes {
		dets[i] = stream.Detection{Site: d.Site, DocID: d.DocID, SeenAt: d.Posted, Extraction: d.Extraction}
		if d.Labels.Address {
			dets[i].AddressLine = stream.AddressLine(d.Text)
		}
	}
	fan := sv.fanout()
	start := time.Now()
	for _, d := range dets {
		fan.Deliver(d)
	}
	r.res.Layers["fanout.us_per_alert"] = float64(time.Since(start).Microseconds()) / float64(len(dets))
}
