// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation section, plus ablations of the design choices DESIGN.md calls
// out. Each bench prints the regenerated artifact (paper-vs-measured) once
// and then measures the dominant computation as its op.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The shared study (scale 0.05 ≈ 87k documents) is built once per process.
package doxmeter

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"doxmeter/internal/abuse"
	"doxmeter/internal/classifier"
	"doxmeter/internal/core"
	"doxmeter/internal/crawler"
	"doxmeter/internal/dedup"
	"doxmeter/internal/experiments"
	"doxmeter/internal/extract"
	"doxmeter/internal/feed"
	"doxmeter/internal/htmltext"
	"doxmeter/internal/label"
	"doxmeter/internal/monitor"
	"doxmeter/internal/netid"
	"doxmeter/internal/notify"
	"doxmeter/internal/randutil"
	"doxmeter/internal/sgd"
	"doxmeter/internal/sim"
	"doxmeter/internal/simclock"
	"doxmeter/internal/store"
	"doxmeter/internal/stream"
	"doxmeter/internal/textgen"
	"doxmeter/internal/tfidf"
	"doxmeter/internal/watchlist"
)

// benchScale sizes the shared study. 0.4 ≈ 695k documents and ~1,800
// unique doxes — large enough that every Table 10 row carries tens of
// accounts (the paper's rows carry 87–361; the Instagram rows are the
// binding constraint) while a full bench run stays under ~15 minutes.
// Lower it for quick spot checks.
const benchScale = 0.4

var (
	studyOnce sync.Once
	benchS    *core.Study
	studyErr  error
)

// benchStudy builds the shared study on first use.
func benchStudy(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		s, err := core.NewStudy(core.StudyConfig{Seed: 1709, Scale: benchScale})
		if err != nil {
			studyErr = err
			return
		}
		if err := s.Run(context.Background()); err != nil {
			studyErr = err
			return
		}
		benchS = s
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return benchS
}

// printOnce writes an artifact to stdout exactly once per bench.
var printed sync.Map

func printOnce(key, artifact string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Fprintf(os.Stdout, "\n%s\n", artifact)
	}
}

func BenchmarkTable1Classifier(b *testing.B) {
	s := benchStudy(b)
	printOnce("table1", experiments.Table1(s).String())
	doc := s.Doxes[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Classifier.IsDox(doc)
	}
}

func BenchmarkTable2Extractor(b *testing.B) {
	s := benchStudy(b)
	rows := experiments.MeasureTable2(s, 125)
	printOnce("table2", experiments.Table2(rows).String())
	doc := s.Doxes[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = extract.Extract(doc)
	}
}

func BenchmarkTable3Deletion(b *testing.B) {
	s := benchStudy(b)
	printOnce("table3", experiments.Table3(s).String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.DeletionCheck()
	}
}

func BenchmarkTable4Collection(b *testing.B) {
	s := benchStudy(b)
	printOnce("table4", experiments.Table4(s).String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.OSNCounts()
	}
}

func BenchmarkTable5Demographics(b *testing.B) {
	s := benchStudy(b)
	agg, _ := s.LabelSample(s.Cfg.LabelSample)
	printOnce("table5", experiments.Table5(agg).String())
	doc := s.Doxes[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = label.Apply(doc)
	}
}

func BenchmarkTable6Categories(b *testing.B) {
	s := benchStudy(b)
	agg, _ := s.LabelSample(s.Cfg.LabelSample)
	printOnce("table6", experiments.Table6(agg).String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg2, _ := s.LabelSample(64)
		_ = agg2
	}
}

func BenchmarkTable7Communities(b *testing.B) {
	s := benchStudy(b)
	agg, _ := s.LabelSample(s.Cfg.LabelSample)
	printOnce("table7", experiments.Table7(agg).String())
	doc := s.Doxes[len(s.Doxes)/2].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = label.Apply(doc)
	}
}

func BenchmarkTable8Motivations(b *testing.B) {
	s := benchStudy(b)
	agg, _ := s.LabelSample(s.Cfg.LabelSample)
	printOnce("table8", experiments.Table8(agg).String())
	doc := s.Doxes[len(s.Doxes)/3].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = label.Apply(doc)
	}
}

func BenchmarkTable9OSNCounts(b *testing.B) {
	s := benchStudy(b)
	printOnce("table9", experiments.Table9(s).String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.OSNCounts()
	}
}

func BenchmarkTable10StatusChanges(b *testing.B) {
	s := benchStudy(b)
	printOnce("table10", experiments.Table10(s).String())
	hist := s.Monitor.Histories()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = monitor.Changes(hist, monitor.ByNetwork(netid.Facebook))
	}
}

func BenchmarkFigure1Pipeline(b *testing.B) {
	s := benchStudy(b)
	printOnce("figure1", experiments.Figure1(s).String())
	// Op: one document through the per-document pipeline stages.
	g := textgen.New(sim.NewWorld(sim.Default(55, 0.01)))
	r := randutil.New(55)
	raw := g.BenignBoardPost(r)
	d := dedup.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := htmltext.Convert(raw)
		if s.Classifier.IsDox(text) {
			ex := extract.Extract(text)
			d.Check(fmt.Sprint(i), text, ex.AccountSetKey())
		}
	}
}

func BenchmarkFigure2Cliques(b *testing.B) {
	s := benchStudy(b)
	tbl, dot := experiments.Figure2(s)
	printOnce("figure2", tbl.String()+fmt.Sprintf("\n(DOT output: %d bytes; render with graphviz)\n", len(dot)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.BuildDoxerNetwork(4)
	}
}

func BenchmarkFigure3StatusTimeline(b *testing.B) {
	s := benchStudy(b)
	for _, network := range []netid.Network{netid.Facebook, netid.Instagram} {
		pre, post, summary := experiments.Figure3(s, network)
		printOnce("figure3-"+network.Slug(), summary.String()+"\n"+pre.String()+"\n"+post.String())
	}
	hist := s.Monitor.Histories()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = monitor.Strip(hist, monitor.ByNetwork(netid.Facebook))
	}
}

func BenchmarkSection63Timing(b *testing.B) {
	s := benchStudy(b)
	printOnce("sec63", experiments.Section63(s).String())
	hist := s.Monitor.Histories()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = monitor.Timing(hist, func(h *monitor.History) bool { return !h.Control })
	}
}

func BenchmarkSection532Comments(b *testing.B) {
	s := benchStudy(b)
	printOnce("sec532", experiments.Section532(s).String())
	hist := s.Monitor.Histories()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = monitor.Commenters(hist)
	}
}

func BenchmarkSectionAbuseComments(b *testing.B) {
	s := benchStudy(b)
	printOnce("secabuse", experiments.SectionAbuse(s).String())
	comment := "we know where you live now, check pastebin"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = abuse.IsAbusive(comment)
	}
}

func BenchmarkSectionCompromise(b *testing.B) {
	s := benchStudy(b)
	printOnce("seccompromise", experiments.SectionCompromise(s).String())
	hist := s.Monitor.Histories()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = monitor.Compromises(hist, func(h *monitor.History) bool { return !h.Control })
	}
}

func BenchmarkSectionActivityMetric(b *testing.B) {
	s := benchStudy(b)
	printOnce("secactivity", experiments.SectionActivity(s).String())
	hist := s.Monitor.Histories()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = monitor.Changes(hist, monitor.Active(5, monitor.Controls()))
	}
}

func BenchmarkSection41GeoValidation(b *testing.B) {
	s := benchStudy(b)
	printOnce("sec41", experiments.Section41(s).String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.ValidateGeo(50)
	}
}

func BenchmarkSectionMirrors(b *testing.B) {
	s := benchStudy(b)
	tbl, err := experiments.SectionMirrors(s)
	if err != nil {
		b.Fatal(err)
	}
	printOnce("secmirrors", tbl.String())
	doc := s.Doxes[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := extract.Extract(doc)
		_, _ = s.Deduper.Peek(doc, ex.AccountSetKey())
	}
}

// --- Ablations (DESIGN.md §5) ---

// trainVariant trains a classifier variant on the shared study's labeled
// corpus and reports its dox-class metrics.
func trainVariant(b *testing.B, name string, opts classifier.Options) {
	s := benchStudy(b)
	examples := s.Gen.TrainingSet()
	exs := make([]classifier.Example, len(examples))
	for i, ex := range examples {
		exs[i] = classifier.Example{Body: ex.Body, IsDox: ex.IsDox}
	}
	_, res, err := classifier.TrainEval(rand.New(rand.NewSource(99)), exs, opts)
	if err != nil {
		b.Fatal(err)
	}
	dox := res.Report[0]
	printOnce("ablation-"+name, fmt.Sprintf("Ablation %-22s dox P=%.3f R=%.3f F1=%.3f (default: see Table 1)",
		name, dox.Precision, dox.Recall, dox.F1))
}

func BenchmarkAblationSublinearTF(b *testing.B) {
	trainVariant(b, "sublinear-tf", classifier.Options{TFIDF: tfidf.Options{SublinearTF: true}})
	b.ResetTimer()
	vz := tfidf.NewVectorizer(tfidf.Options{SublinearTF: true})
	vz.Fit([]string{"alpha beta gamma", "beta gamma delta"})
	for i := 0; i < b.N; i++ {
		_ = vz.Transform("alpha beta beta gamma gamma gamma")
	}
}

func BenchmarkAblationBigrams(b *testing.B) {
	trainVariant(b, "unigram+bigram", classifier.Options{TFIDF: tfidf.Options{Bigrams: true}})
	vz := tfidf.NewVectorizer(tfidf.Options{Bigrams: true})
	vz.Fit([]string{"alpha beta gamma", "beta gamma delta"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vz.Transform("alpha beta beta gamma gamma gamma")
	}
}

func BenchmarkAblationLogLoss(b *testing.B) {
	trainVariant(b, "log-loss", classifier.Options{SGD: sgd.Options{Loss: sgd.Log}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = i
	}
}

func BenchmarkAblationEpochs1(b *testing.B) {
	trainVariant(b, "epochs=1", classifier.Options{SGD: sgd.Options{Epochs: 1}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = i
	}
}

func BenchmarkAblationEpochs5(b *testing.B) {
	trainVariant(b, "epochs=5", classifier.Options{SGD: sgd.Options{Epochs: 5}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = i
	}
}

// BenchmarkAblationDedupBodyOnly measures how many near-duplicates survive
// when de-duplication uses body hashes alone (no account sets) — the
// paper's §3.1.4 motivation for the account-set pass.
func BenchmarkAblationDedupBodyOnly(b *testing.B) {
	g := textgen.New(sim.NewWorld(sim.Default(77, 0.05)))
	corpus := g.Corpus()
	var doxBodies []string
	var keys []string
	for _, site := range textgen.AllSites() {
		for _, doc := range corpus.Streams[site] {
			if !doc.IsDox() {
				continue
			}
			text := doc.Body
			if doc.HTML {
				text = htmltext.Convert(text)
			}
			doxBodies = append(doxBodies, text)
			keys = append(keys, extract.Extract(text).AccountSetKey())
		}
	}
	run := func(useAccounts bool) dedup.Stats {
		d := dedup.New()
		for i, body := range doxBodies {
			key := ""
			if useAccounts {
				key = keys[i]
			}
			d.Check(fmt.Sprint(i), body, key)
		}
		return d.Stats()
	}
	full := run(true)
	bodyOnly := run(false)
	printOnce("ablation-dedup", fmt.Sprintf(
		"Ablation dedup: with account sets %d dups (%d exact + %d account); body-only %d dups — %d near-duplicates survive",
		full.TotalDups(), full.ExactDups, full.AccntDups, bodyOnly.TotalDups(), full.AccntDups))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = run(true)
	}
}

// BenchmarkAblationScheduleCoverage measures what fraction of ground-truth
// status transitions the paper's 0/1/2/3/7/weekly schedule actually
// observed, versus a weekly-only schedule's theoretical coverage.
func BenchmarkAblationScheduleCoverage(b *testing.B) {
	s := benchStudy(b)
	hist := s.Monitor.Histories()
	var observed, truth int
	for _, h := range hist {
		if h.Control || !h.Verified || len(h.Obs) < 2 {
			continue
		}
		a, ok := s.Universe.Lookup(h.Ref)
		if !ok {
			continue
		}
		// Ground truth: did the account's status differ at any two of our
		// scheduled visit times? Compare against whether the account
		// changed at all inside the observation window.
		start, end := h.Obs[0].Time, h.Obs[len(h.Obs)-1].Time
		if a.StatusAt(start) != a.StatusAt(end) {
			truth++
			first, _ := h.FirstStatus()
			last, _ := h.LastStatus()
			if first != last {
				observed++
			}
		}
	}
	cov := 0.0
	if truth > 0 {
		cov = float64(observed) / float64(truth)
	}
	printOnce("ablation-schedule", fmt.Sprintf(
		"Ablation schedule: paper schedule observed %d/%d (%.0f%%) of end-to-end ground-truth status changes",
		observed, truth, cov*100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = monitor.Changes(hist, monitor.ByNetwork(netid.Instagram))
	}
}

// BenchmarkAblationExtractorGreedy compares the reference extractor's
// abstain-on-ambiguity policy against a greedy first-candidate policy on
// ambiguous account lines: greedy recovers more accounts but pollutes the
// dedup identity with wrong guesses (§3.1.3's motivation for conservatism).
func BenchmarkAblationExtractorGreedy(b *testing.B) {
	s := benchStudy(b)
	r := randutil.New(4242)
	victims := randutil.PickN(r, s.World.TrainVictims, 300)
	type score struct{ hit, wrong, total int }
	eval := func(opts extract.Options) score {
		rr := randutil.New(777)
		var sc score
		for _, v := range victims {
			render := s.Gen.Dox(rr, v)
			ex := extract.ExtractWith(render.Body, opts)
			for n, user := range v.OSN {
				sc.total++
				switch ex.Accounts[n] {
				case user:
					sc.hit++
				case "":
				default:
					sc.wrong++
				}
			}
		}
		return sc
	}
	ref := eval(extract.Options{})
	greedy := eval(extract.Options{Greedy: true})
	printOnce("ablation-extractor", fmt.Sprintf(
		"Ablation extractor: reference %d/%d correct, %d wrong; greedy %d/%d correct, %d wrong (wrong guesses corrupt dedup identity)",
		ref.hit, ref.total, ref.wrong, greedy.hit, greedy.total, greedy.wrong))
	doc := s.Doxes[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = extract.ExtractWith(doc, extract.Options{Greedy: true})
	}
}

// BenchmarkAblationThresholdSweep traces the classifier's precision/recall
// trade-off across decision thresholds — the curve on which the paper's
// Table 1 operating point sits.
func BenchmarkAblationThresholdSweep(b *testing.B) {
	s := benchStudy(b)
	examples := s.Gen.TrainingSet()
	exs := make([]classifier.Example, len(examples))
	for i, ex := range examples {
		exs[i] = classifier.Example{Body: ex.Body, IsDox: ex.IsDox}
	}
	var lines []string
	for _, th := range []float64{-0.4, -0.2, -0.05, 0.06, 0.2, 0.4, 0.8} {
		_, res, err := classifier.TrainEval(rand.New(rand.NewSource(31)), exs, classifier.Options{Threshold: th})
		if err != nil {
			b.Fatal(err)
		}
		dox := res.Report[0]
		lines = append(lines, fmt.Sprintf("  threshold %+5.2f: dox P=%.3f R=%.3f F1=%.3f", th, dox.Precision, dox.Recall, dox.F1))
	}
	printOnce("ablation-threshold", "Ablation threshold sweep (paper operating point: P=.81 R=.89):\n"+
		joinLines(lines))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = i
	}
}

func joinLines(lines []string) string {
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// BenchmarkCheckpointRoundTrip measures one full durability cycle at the
// shared study's scale: snapshot every pipeline component, encode to the
// checkpoint wire format, decode it back. The bytes/op figure is the
// on-disk snapshot size a full-scale durable run pays per checkpoint.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	s := benchStudy(b)
	snap, err := s.Snapshot(2, 49)
	if err != nil {
		b.Fatal(err)
	}
	data, err := store.Encode(snap)
	if err != nil {
		b.Fatal(err)
	}
	printOnce("checkpoint", fmt.Sprintf(
		"Checkpoint: %d components, %d bytes encoded at scale %g", len(snap.Components), len(data), benchScale))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := s.Snapshot(2, 49)
		if err != nil {
			b.Fatal(err)
		}
		data, err := store.Encode(snap)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Incremental checkpointing (delta mode) ---

// deltaBench holds a second shared study, run once in delta-checkpoint
// mode against an in-memory DeltaStore so the finished chain — the last
// compaction full plus the deltas after it — is available to the delta
// benchmarks. The study itself is kept for the compaction bench.
var (
	deltaBenchOnce  sync.Once
	deltaBenchErr   error
	deltaBenchS     *core.Study
	deltaBenchBase  *store.Snapshot // the cut the measured delta applies to
	deltaBenchDelta *store.Delta    // one steady-state incremental day
)

func deltaBenchSetup(b *testing.B) {
	b.Helper()
	deltaBenchOnce.Do(func() {
		mem := store.NewMem()
		s, err := core.NewStudy(core.StudyConfig{Seed: 1709, Scale: benchScale,
			Checkpoint: &core.CheckpointConfig{Store: mem, EveryDays: 1, Mode: core.CheckpointDelta, CompactEvery: 8}})
		if err == nil {
			err = s.Run(context.Background())
		}
		if err != nil {
			deltaBenchErr = err
			return
		}
		base, deltas, err := mem.LoadChain()
		if err != nil {
			deltaBenchErr = err
			return
		}
		if len(deltas) == 0 {
			deltaBenchErr = fmt.Errorf("delta-mode run left no chain above full %d", base.Seq)
			return
		}
		// Walk the chain to the cut just below its tip so the benchmark
		// op applies exactly one incremental day.
		pre, err := core.ApplyDeltaChain(base, deltas[:len(deltas)-1])
		if err != nil {
			deltaBenchErr = err
			return
		}
		deltaBenchS, deltaBenchBase, deltaBenchDelta = s, pre, deltas[len(deltas)-1]
	})
	if deltaBenchErr != nil {
		b.Fatal(deltaBenchErr)
	}
}

// BenchmarkCheckpointDelta measures the per-day durability cost in delta
// mode at the shared study's scale: encode one steady-state incremental
// day to the delta wire format and decode it back — the write path a
// durable run pays every day between compactions. (Applying the delta is
// a resume-time cost; it rides on the full-snapshot decode measured by
// CheckpointRoundTrip.) The bytes/op figure is the on-disk cost of the
// incremental day; the benchmark fails outright if it exceeds the 5 MB
// delta budget, and setup verifies the delta still reproduces the next
// cut (a full snapshot at this scale is ~165 MB and ~759 ms).
func BenchmarkCheckpointDelta(b *testing.B) {
	deltaBenchSetup(b)
	base, d := deltaBenchBase, deltaBenchDelta
	enc, err := store.EncodeDelta(d)
	if err != nil {
		b.Fatal(err)
	}
	if len(enc) > 5<<20 {
		b.Fatalf("incremental day encoded to %d bytes, over the 5 MB budget", len(enc))
	}
	if _, err := core.ApplyDeltaChain(base, []*store.Delta{d}); err != nil {
		b.Fatalf("measured delta does not apply to its base: %v", err)
	}
	printOnce("delta", fmt.Sprintf(
		"Delta checkpoint: day %d←%d, %d components, %d bytes encoded at scale %g",
		d.Seq, d.BaseSeq, len(d.Components), len(enc), benchScale))
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := store.EncodeDelta(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.DecodeDelta(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointCompaction measures what a delta chain pays every
// CompactEvery cuts: building and encoding the full snapshot that rebases
// the chain. Amortized over the cuts between fulls this bounds both
// recovery replay length and total state-dir growth.
func BenchmarkCheckpointCompaction(b *testing.B) {
	deltaBenchSetup(b)
	s := deltaBenchS
	snap, err := s.Snapshot(2, 49)
	if err != nil {
		b.Fatal(err)
	}
	data, err := store.Encode(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := s.Snapshot(2, 49)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.Encode(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyEndToEnd measures a complete miniature study per op.
func BenchmarkStudyEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.NewStudy(core.StudyConfig{Seed: int64(100 + i), Scale: 0.002, ControlSample: 200})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkStudy is the whole-study allocation gate in bench-check:
// NewStudy plus Run of a miniature study at one fixed seed, so B/op and
// allocs/op are comparable across runs (BenchmarkStudyEndToEnd varies
// the seed per iteration).
func BenchmarkStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.NewStudy(core.StudyConfig{Seed: 1311, Scale: 0.002, ControlSample: 200})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// --- Parallelism (the concurrent pipeline's throughput knob) ---

// parBench holds a small study (classifier trained, no Run) plus a batch of
// raw documents shaped like one heavy collection day, shared by the
// parallelism benchmarks.
var (
	parBenchOnce sync.Once
	parBenchS    *core.Study
	parBenchDocs []crawler.Doc
	parBenchErr  error
)

func parallelBenchSetup(b *testing.B) (*core.Study, []crawler.Doc) {
	b.Helper()
	parBenchOnce.Do(func() {
		s, err := core.NewStudy(core.StudyConfig{Seed: 21, Scale: 0.01, ControlSample: 100})
		if err != nil {
			parBenchErr = err
			return
		}
		parBenchS = s
		corpus := s.Corpus()
		for _, site := range textgen.AllSites() {
			for i := range corpus.Streams[site] {
				d := &corpus.Streams[site][i]
				parBenchDocs = append(parBenchDocs, crawler.Doc{
					Site: string(site), ID: d.ID, Title: d.Title,
					Body: d.Body, HTML: d.HTML, Posted: d.Posted,
				})
				if len(parBenchDocs) >= 4000 {
					return
				}
			}
		}
	})
	if parBenchErr != nil {
		b.Fatal(parBenchErr)
	}
	return parBenchS, parBenchDocs
}

// benchPipelineParallelism pushes the shared batch through the CPU-hot
// pipeline stages (HTML probe and conversion → classify → extract) with the
// given worker-pool size. On a 2-core VM at -cpu 2, Parallelism2 measured
// 1.74× the docs/s of Parallelism1 (median of 5 interleaved runs, range
// 1.32–2.04×).
func benchPipelineParallelism(b *testing.B, workers int) {
	s, docs := parallelBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.PrepareBatch(docs, workers)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(docs))*float64(b.N)/secs, "docs/s")
	}
}

func BenchmarkPipelineParallelism1(b *testing.B) { benchPipelineParallelism(b, 1) }
func BenchmarkPipelineParallelism2(b *testing.B) { benchPipelineParallelism(b, 2) }
func BenchmarkPipelineParallelism4(b *testing.B) { benchPipelineParallelism(b, 4) }

// benchClassifierBatch isolates the classification stage's batch API.
func benchClassifierBatch(b *testing.B, workers int) {
	s, docs := parallelBenchSetup(b)
	texts := make([]string, 0, 1000)
	for i := 0; i < len(docs) && i < 1000; i++ {
		text := docs[i].Body
		if docs[i].HTML {
			text = htmltext.Convert(text)
		}
		texts = append(texts, text)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Classifier.IsDoxBatch(texts, workers)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(texts))*float64(b.N)/secs, "docs/s")
	}
}

func BenchmarkClassifierBatch1(b *testing.B) { benchClassifierBatch(b, 1) }
func BenchmarkClassifierBatch4(b *testing.B) { benchClassifierBatch(b, 4) }

// BenchmarkStudyEndToEndParallel is BenchmarkStudyEndToEnd with the
// pipeline's worker pools enabled at GOMAXPROCS.
func BenchmarkStudyEndToEndParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.NewStudy(core.StudyConfig{Seed: int64(100 + i), Scale: 0.002, ControlSample: 200, Parallelism: 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// --- Fused classify kernel (the zero-allocation inference hot path) ---

// hotDoc renders one realistic dox document for the hot-path benchmarks.
func hotDoc(b *testing.B) (*core.Study, string) {
	s, _ := parallelBenchSetup(b)
	return s, s.Gen.Dox(randutil.New(5), s.World.TrainVictims[0]).Body
}

// BenchmarkClassifyHot measures the steady-state fused classify path: one
// pass over the document bytes producing margin, token count and verdict,
// with pooled scratch. The acceptance bar is >= 3x faster than
// BenchmarkClassifyReference and <= 5 allocs/op.
func BenchmarkClassifyHot(b *testing.B) {
	s, doc := hotDoc(b)
	var r classifier.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Classifier.ScoreInto(doc, &r)
	}
}

// BenchmarkClassifyReference is the same classification through the original
// sparse path (Transform into a materialized vector, Decision, Tokenize for
// the length floor) — the baseline the fused kernel is measured against.
func BenchmarkClassifyReference(b *testing.B) {
	s, doc := hotDoc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Classifier.ScoreReference(doc)
		_ = len(tfidf.Tokenize(doc))
	}
}

// BenchmarkTokenizeZeroAlloc measures the scorer's allocation-free token
// counting against tfidf.Tokenize's materializing tokenizer (the 0 B/op
// column is the point).
func BenchmarkTokenizeZeroAlloc(b *testing.B) {
	_, doc := hotDoc(b)
	vz := tfidf.NewVectorizer(tfidf.Options{})
	vz.Fit([]string{"name address phone email"})
	sc := vz.NewScorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.TokenCount(doc)
	}
}

// BenchmarkExtract measures the reference (regex) extractor on its two
// regimes: a dox document (every hint present, all regexes run) and a
// benign document (gates skip the regex engine — the crawl's dominant
// case). This is the baseline BenchmarkExtractFused is measured against.
func BenchmarkExtract(b *testing.B) {
	s, doc := hotDoc(b)
	r := randutil.New(6)
	_, benign := s.Gen.BenignPaste(r)
	ref := extract.Options{ReferenceKernel: true}
	b.Run("dox", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = extract.ExtractWith(doc, ref)
		}
	})
	b.Run("benign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = extract.ExtractWith(benign, ref)
		}
	})
}

// BenchmarkExtractFused measures the fused single-pass extract kernel: one
// Aho–Corasick scan over the folded document dispatching to hand-rolled
// matchers, with a pinned kernel and a reused Extraction. The acceptance
// bar is >= 3x faster than BenchmarkExtract/dox, >= 5x faster than
// BenchmarkExtract/benign, and 0 allocs/op at steady state.
func BenchmarkExtractFused(b *testing.B) {
	s, doc := hotDoc(b)
	r := randutil.New(6)
	_, benign := s.Gen.BenignPaste(r)
	k := extract.NewKernel()
	var e extract.Extraction
	b.Run("dox", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.ExtractInto(doc, &e, extract.Options{})
		}
	})
	b.Run("benign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.ExtractInto(benign, &e, extract.Options{})
		}
	})
}

// --- Prepare stage ---

// BenchmarkIsProbablyHTML measures the HTML probe on a plain-text paste,
// the case it runs on for most crawled documents: every paste is probed
// and almost none converts. Held to exactly 0 allocs/op.
func BenchmarkIsProbablyHTML(b *testing.B) {
	s, _ := parallelBenchSetup(b)
	_, paste := s.Gen.BenignPaste(randutil.New(6))
	if htmltext.IsProbablyHTML(paste) {
		b.Fatal("benchmark paste probes as HTML")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probeSink = htmltext.IsProbablyHTML(paste)
	}
}

// probeSink keeps the probe call in BenchmarkIsProbablyHTML live.
var probeSink bool

// crawlDocs is a fixed slice of the parallel-bench corpus in crawl
// proportions: every site's stream is sampled at one stride, so pastes,
// board posts and the doxes among them keep the shares the crawl collects
// them in (pastes are about 80% of documents).
func crawlDocs(b *testing.B) (*core.Study, []crawler.Doc) {
	s, _ := parallelBenchSetup(b)
	corpus := s.Corpus()
	stride := max(corpus.TotalDocs()/2000, 1)
	var docs []crawler.Doc
	for _, site := range textgen.AllSites() {
		stream := corpus.Streams[site]
		for i := 0; i < len(stream); i += stride {
			d := &stream[i]
			docs = append(docs, crawler.Doc{
				Site: string(site), ID: d.ID, Title: d.Title,
				Body: d.Body, HTML: d.HTML, Posted: d.Posted,
			})
		}
	}
	return s, docs
}

// BenchmarkPrepareBatch measures the prepare stage both engines run per
// document — HTML probe and conversion, classify, and extract for flagged
// documents — through Study.PrepareBatch at one worker over crawlDocs.
// ns/doc is the per-document prepare cost. It runs on one P: a goroutine
// that migrates between Ps misses the sync.Pool scratch it left on the
// other one and allocates a fresh scorer, which made B/op swing by 25%
// between samples.
func BenchmarkPrepareBatch(b *testing.B) {
	s, docs := crawlDocs(b)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.PrepareBatch(docs, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(docs)), "ns/doc")
}

// --- Service mode ---

// BenchmarkAlertFanout measures one detection's §7 fan-out: salted-digest
// lookups against a 16-victim notification registry, a feed ring publish,
// and watchlist address+phone listing. This is the per-alert cost
// service mode adds to the commit of each unique dox.
func BenchmarkAlertFanout(b *testing.B) {
	s, _ := parallelBenchSetup(b)
	svc := notify.NewService("bench-salt")
	wl := watchlist.New(0, func() time.Time { return simclock.Period1.Start })
	flog := feed.NewLog()
	fan := &stream.Fanout{Notify: svc, Watchlist: wl, Feed: flog}
	victims := s.World.Victims
	for i := 0; i < 16 && i < len(victims); i++ {
		v := victims[i]
		id := fmt.Sprintf("victim-%d", i)
		svc.Subscribe(id, notify.KindEmail, v.Email)
		svc.Subscribe(id, notify.KindPhone, v.Phone)
		for n, user := range v.OSN {
			svc.SubscribeAccount(id, netid.Ref{Network: n, Username: user})
		}
	}
	r := randutil.New(17)
	dets := make([]stream.Detection, 64)
	for i := range dets {
		v := victims[i%len(victims)]
		text := s.Gen.Dox(r, v).Body
		dets[i] = stream.Detection{
			Site: "pastebin", DocID: fmt.Sprintf("d%03d", i), SeenAt: simclock.Period1.Start,
			Extraction: extract.Extract(text), AddressLine: stream.AddressLine(text),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fan.Deliver(dets[i%len(dets)])
	}
}

// calibrateSink defeats dead-code elimination of the calibration loop.
var calibrateSink uint64

// calibrateBuf is the calibration working set: 4 MB of fixed pseudo-random
// data, larger than L2 so the walk below exercises the shared cache and
// memory system, not just the core.
var calibrateBuf []uint64

// BenchmarkCalibrate is the machine-speed reference behind the bench-check
// gate: a fixed, zero-allocation workload that interleaves xorshift ALU
// work with a pseudo-random walk over a 4 MB buffer, so its ns/op moves
// with CPU frequency, scheduler steal AND cache/memory-bandwidth
// interference — the full weather a shared machine imposes on the real
// benchmarks — but with nothing in this repository. benchjson normalizes
// a gated run by the calibration ratio against the baseline, so the
// regression limit measures the code rather than the weather.
func BenchmarkCalibrate(b *testing.B) {
	if calibrateBuf == nil {
		calibrateBuf = make([]uint64, 1<<19)
		x := uint64(0x9e3779b97f4a7c15)
		for i := range calibrateBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			calibrateBuf[i] = x
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	acc := uint64(1)
	idx := uint64(0)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 2048; j++ {
			idx = (idx*0x9e3779b97f4a7c15 + acc) & (1<<19 - 1)
			acc ^= calibrateBuf[idx]
			acc ^= acc << 13
			acc ^= acc >> 7
		}
	}
	calibrateSink = acc
}
