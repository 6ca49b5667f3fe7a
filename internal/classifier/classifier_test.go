package classifier

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"doxmeter/internal/sim"
	"doxmeter/internal/textgen"
)

// paperExamples renders the paper's labeled training corpus.
func paperExamples(t *testing.T) []Example {
	t.Helper()
	g := textgen.New(sim.NewWorld(sim.Default(123, 0.01)))
	ts := g.TrainingSet()
	out := make([]Example, len(ts))
	for i, ex := range ts {
		out[i] = Example{Body: ex.Body, IsDox: ex.IsDox}
	}
	return out
}

func TestTrainEvalTable1Shape(t *testing.T) {
	exs := paperExamples(t)
	r := rand.New(rand.NewSource(1))
	clf, res, err := TrainEval(r, exs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if clf == nil {
		t.Fatal("nil classifier")
	}
	// Split sizes: 2/3 train, 1/3 eval (paper §3.1.2).
	total := len(exs)
	if res.TrainSize != total*2/3 || res.TestSize != total-total*2/3 {
		t.Errorf("split %d/%d of %d", res.TrainSize, res.TestSize, total)
	}
	dox := res.Report[0]
	not := res.Report[1]
	if dox.Label != "Dox" || not.Label != "Not" {
		t.Fatalf("report labels %q/%q", dox.Label, not.Label)
	}
	// Shape targets from Table 1: the dox class is the hard one; the
	// negative class is near-perfect; overall accuracy is high.
	if dox.Recall < 0.80 {
		t.Errorf("dox recall %.3f, want >= 0.80 (paper: 0.89)", dox.Recall)
	}
	if dox.Precision < 0.70 {
		t.Errorf("dox precision %.3f, want >= 0.70 (paper: 0.81)", dox.Precision)
	}
	if not.Precision < 0.97 || not.Recall < 0.95 {
		t.Errorf("not-class P/R %.3f/%.3f, want ~0.99/0.98", not.Precision, not.Recall)
	}
	if res.Confusion.Accuracy() < 0.95 {
		t.Errorf("accuracy %.3f, want >= 0.95 (paper: 0.98)", res.Confusion.Accuracy())
	}
}

// TestBatchMatchesSequential verifies the batch API yields exactly the
// per-document results at any worker count.
func TestBatchMatchesSequential(t *testing.T) {
	exs := paperExamples(t)
	r := rand.New(rand.NewSource(3))
	clf, _, err := TrainEval(r, exs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]string, 0, 200)
	for i := 0; i < len(exs) && i < 200; i++ {
		docs = append(docs, exs[i].Body)
	}
	want := make([]bool, len(docs))
	wantScores := make([]float64, len(docs))
	for i, d := range docs {
		want[i] = clf.IsDox(d)
		wantScores[i] = clf.Score(d)
	}
	for _, workers := range []int{0, 1, 4, 16} {
		got := clf.IsDoxBatch(docs, workers)
		scores := clf.ScoreBatch(docs, workers)
		for i := range docs {
			if got[i] != want[i] || scores[i] != wantScores[i] {
				t.Fatalf("workers=%d: doc %d batch=(%v,%g) sequential=(%v,%g)",
					workers, i, got[i], scores[i], want[i], wantScores[i])
			}
		}
	}
}

// TestTrainEvalParallelismInvariant: the evaluation result must not depend
// on the Parallelism knob.
func TestTrainEvalParallelismInvariant(t *testing.T) {
	exs := paperExamples(t)
	_, serial, err := TrainEval(rand.New(rand.NewSource(9)), exs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, par, err := TrainEval(rand.New(rand.NewSource(9)), exs, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Confusion != par.Confusion {
		t.Fatalf("confusion diverged: serial %+v parallel %+v", serial.Confusion, par.Confusion)
	}
}

func TestClassifierGeneralizesToWildDoxes(t *testing.T) {
	// Train on the rich proof-of-work corpus, then classify wild-corpus
	// doxes and benign pastes it has never seen.
	g := textgen.New(sim.NewWorld(sim.Default(7, 0.01)))
	r := rand.New(rand.NewSource(2))
	var docs []string
	var labels []bool
	for _, ex := range g.TrainingSet() {
		docs = append(docs, ex.Body)
		labels = append(labels, ex.IsDox)
	}
	clf, err := Train(r, docs, labels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hit, miss := 0, 0
	for _, v := range g.World().Victims[:40] {
		d := g.Dox(r, v)
		if clf.IsDox(d.Body) {
			hit++
		} else {
			miss++
		}
	}
	if float64(hit)/float64(hit+miss) < 0.75 {
		t.Errorf("wild dox recall %d/%d too low", hit, hit+miss)
	}
	fp := 0
	for i := 0; i < 200; i++ {
		_, body := g.BenignPaste(r)
		if clf.IsDox(body) {
			fp++
		}
	}
	if float64(fp)/200 > 0.05 {
		t.Errorf("benign false-positive rate %d/200 too high", fp)
	}
}

func TestTrainErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	if _, err := Train(r, nil, nil, Options{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train(r, []string{"a"}, []bool{true, false}, Options{}); err == nil {
		t.Error("mismatched labels accepted")
	}
	if _, _, err := TrainEval(r, []Example{{Body: "x"}}, Options{}); err == nil {
		t.Error("tiny eval set accepted")
	}
}

func TestScoreMonotoneWithThreshold(t *testing.T) {
	exs := paperExamples(t)[:800]
	r := rand.New(rand.NewSource(4))
	var docs []string
	var labels []bool
	for _, ex := range exs {
		docs = append(docs, ex.Body)
		labels = append(labels, ex.IsDox)
	}
	strict, err := Train(rand.New(rand.NewSource(5)), docs, labels, Options{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Train(rand.New(rand.NewSource(5)), docs, labels, Options{Threshold: -0.5})
	if err != nil {
		t.Fatal(err)
	}
	strictPos, loosePos := 0, 0
	for _, ex := range exs {
		if strict.IsDox(ex.Body) {
			strictPos++
		}
		if loose.IsDox(ex.Body) {
			loosePos++
		}
	}
	if strictPos > loosePos {
		t.Errorf("stricter threshold flagged more documents (%d > %d)", strictPos, loosePos)
	}
	_ = r
}

func TestSaveLoadRoundTrip(t *testing.T) {
	exs := paperExamples(t)[:1500]
	r := rand.New(rand.NewSource(6))
	var docs []string
	var labels []bool
	for _, ex := range exs {
		docs = append(docs, ex.Body)
		labels = append(labels, ex.IsDox)
	}
	orig, err := Train(r, docs, labels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VocabSize() != orig.VocabSize() {
		t.Fatalf("vocab size %d != %d after round trip", loaded.VocabSize(), orig.VocabSize())
	}
	origVocab, origIDF, _, _ := orig.vec.Snapshot()
	loadedVocab, loadedIDF, _, _ := loaded.vec.Snapshot()
	if !reflect.DeepEqual(origVocab, loadedVocab) || !reflect.DeepEqual(origIDF, loadedIDF) {
		t.Fatal("Save → Load changed the vocabulary")
	}
	for _, ex := range exs[:200] {
		if orig.IsDox(ex.Body) != loaded.IsDox(ex.Body) {
			t.Fatal("loaded classifier disagrees with original")
		}
		if a, b := orig.Score(ex.Body), loaded.Score(ex.Body); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("loaded classifier margin %v != original %v", b, a)
		}
	}
}

// TestLoadRejectsCorruptVocab: a saved model whose vocabulary indices do
// not cover 0..n-1 exactly fails to load instead of panicking later.
func TestLoadRejectsCorruptVocab(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(persisted{
		Vocab:   map[string]int{"aa": 0, "bb": 5},
		IDF:     []float64{1, 1},
		Weights: []float64{0.5, -0.5},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("corrupt vocabulary accepted")
	}
}

func TestMinTokensFloor(t *testing.T) {
	exs := paperExamples(t)[:1200]
	var docs []string
	var labels []bool
	for _, ex := range exs {
		docs = append(docs, ex.Body)
		labels = append(labels, ex.IsDox)
	}
	clf, err := Train(rand.New(rand.NewSource(7)), docs, labels, Options{Threshold: -5})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold -5 flags everything long enough; short posts still fall
	// below the length floor.
	if clf.IsDox("short post lol") {
		t.Error("short document flagged despite length floor")
	}
	long := strings.Repeat("name address phone email account ", 10)
	if !clf.IsDox(long) {
		t.Error("long document not flagged at threshold -5")
	}
	// Disabling the floor flags the short post too.
	clf2, err := Train(rand.New(rand.NewSource(7)), docs, labels, Options{Threshold: -5, MinTokens: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !clf2.IsDox("short post lol") {
		t.Error("floor-disabled classifier did not flag the short post")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage input accepted")
	}
}

func TestDeterministicTraining(t *testing.T) {
	exs := paperExamples(t)[:600]
	run := func() *Classifier {
		var docs []string
		var labels []bool
		for _, ex := range exs {
			docs = append(docs, ex.Body)
			labels = append(labels, ex.IsDox)
		}
		clf, err := Train(rand.New(rand.NewSource(9)), docs, labels, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return clf
	}
	a, b := run(), run()
	for _, ex := range exs[:100] {
		if a.Score(ex.Body) != b.Score(ex.Body) {
			t.Fatal("identical seeds produced different classifiers")
		}
	}
}
