package tfidf

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// refDot mirrors sgd.rawMargin: ascending-index accumulation over a sparse
// vector against a dense weight slice, skipping out-of-range indices.
func refDot(v Vector, weights []float64) float64 {
	var sum float64
	for _, f := range v {
		if f.Index < len(weights) {
			sum += weights[f.Index] * f.Value
		}
	}
	return sum
}

// scorerFixture fits a vectorizer over a corpus that exercises repeats,
// unicode, digits and underscores, plus a deterministic weight vector.
func scorerFixture(opts Options) (*Vectorizer, []float64) {
	vz := NewVectorizer(opts)
	vz.Fit([]string{
		"the quick brown fox jumps over the lazy dog",
		"name address phone email email email",
		"café 東京 héllo wörld naïve résumé",
		"user_99 snake_case user_99 mixed123 mixed123 mixed123",
		"dox drop name age city state zip paypal skype",
	})
	weights := make([]float64, vz.VocabSize())
	for i := range weights {
		weights[i] = math.Sin(float64(i)*1.7) * 0.3
	}
	return vz, weights
}

var scorerDocs = []string{
	"",
	"the quick brown fox",
	"unknown terms only here",
	"name: John Smith, age: 44, email a@b.com",
	"NAME NAME name the the THE fox",
	"é",     // single multibyte rune: not a token
	"日本 東京", // multibyte tokens
	"Éé café CAFÉ",
	"a b c d ee",
	"user_99 и кириллица mixed123",
	"\xff\xfe broken utf8 the fox \xc3",
	strings.Repeat("phone email name dox ", 50),
	"ſ Kelvin K the fox", // case-fold oddballs
}

// TestScorerMatchesTransform is the kernel's equivalence bar at the tfidf
// layer: DotNormalized must be bit-identical to dotting the reference
// Transform output, and the token count must equal len(Tokenize), for every
// vectorizer option combination.
func TestScorerMatchesTransform(t *testing.T) {
	for _, opts := range []Options{
		{},
		{SublinearTF: true},
		{Bigrams: true},
		{SublinearTF: true, Bigrams: true},
		{MinDF: 2},
	} {
		vz, weights := scorerFixture(opts)
		s := vz.NewScorer()
		for _, doc := range scorerDocs {
			want := refDot(vz.Transform(doc), weights)
			got, tokens := s.DotNormalized(doc, weights)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("opts %+v doc %q: fused dot %v (bits %x) != reference %v (bits %x)",
					opts, doc, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if wantTok := len(Tokenize(doc)); tokens != wantTok {
				t.Errorf("opts %+v doc %q: tokens %d != len(Tokenize) %d", opts, doc, tokens, wantTok)
			}
		}
	}
}

// TestScorerReuse runs the same scorer over many documents in sequence and
// interleaves repeats, proving the touch-list reset leaves no residue.
func TestScorerReuse(t *testing.T) {
	vz, weights := scorerFixture(Options{Bigrams: true})
	s := vz.NewScorer()
	for round := 0; round < 3; round++ {
		for _, doc := range scorerDocs {
			want := refDot(vz.Transform(doc), weights)
			got, _ := s.DotNormalized(doc, weights)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d doc %q: scorer state leaked across calls", round, doc)
			}
		}
	}
}

// TestScorerShortWeights covers the rawMargin guard: vocabulary indices at
// or beyond len(weights) contribute to the norm but not the dot.
func TestScorerShortWeights(t *testing.T) {
	vz, weights := scorerFixture(Options{})
	short := weights[:vz.VocabSize()/2]
	s := vz.NewScorer()
	for _, doc := range scorerDocs {
		want := refDot(vz.Transform(doc), short)
		got, _ := s.DotNormalized(doc, short)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("doc %q: short-weights dot diverged", doc)
		}
	}
}

func TestScorerTokenCount(t *testing.T) {
	vz, _ := scorerFixture(Options{})
	s := vz.NewScorer()
	for _, doc := range scorerDocs {
		if got, want := s.TokenCount(doc), len(Tokenize(doc)); got != want {
			t.Errorf("TokenCount(%q) = %d, want %d", doc, got, want)
		}
	}
}

// TestScorerEquivalenceProperty drives random strings through both paths.
func TestScorerEquivalenceProperty(t *testing.T) {
	vz, weights := scorerFixture(Options{Bigrams: true})
	s := vz.NewScorer()
	f := func(x string) bool {
		want := refDot(vz.Transform(x), weights)
		got, tokens := s.DotNormalized(x, weights)
		return math.Float64bits(got) == math.Float64bits(want) && tokens == len(Tokenize(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestScorerZeroAlloc pins the headline property: the fused pass allocates
// nothing at steady state — in unigram and bigram mode, on width-changing
// lowercase runes, and on out-of-vocabulary neighbours of vocabulary terms.
func TestScorerZeroAlloc(t *testing.T) {
	docs := append([]string{
		strings.Repeat("name address phone email dox city state ", 20),
		"\u0130stanbul STRA\u1e9eE \u212aelvin café 東京",
		"emai emails email_ emailx nam names fo foxy",
	}, scorerDocs...)
	for _, opts := range []Options{{}, {Bigrams: true}} {
		vz, weights := scorerFixture(opts)
		s := vz.NewScorer()
		for _, doc := range docs {
			s.DotNormalized(doc, weights) // warm the scratch buffers
			if avg := testing.AllocsPerRun(50, func() {
				s.DotNormalized(doc, weights)
			}); avg != 0 {
				t.Errorf("opts %+v doc %.30q: DotNormalized allocates %.1f per op at steady state, want 0", opts, doc, avg)
			}
			if avg := testing.AllocsPerRun(50, func() {
				s.TokenCount(doc)
			}); avg != 0 {
				t.Errorf("opts %+v doc %.30q: TokenCount allocates %.1f per op at steady state, want 0", opts, doc, avg)
			}
		}
	}
}

// TestSnapshotAliasing is the regression test for the Snapshot aliasing
// bug: mutating a snapshot (or the inputs handed to Restore) must not
// perturb the fitted vectorizer.
func TestSnapshotAliasing(t *testing.T) {
	vz := NewVectorizer(Options{})
	vz.Fit([]string{"alpha beta gamma", "beta gamma delta", "alpha delta"})
	doc := "alpha beta beta gamma"
	before := vz.Transform(doc)

	vocab, idf, nDocs, opts := vz.Snapshot()
	for t2 := range vocab {
		vocab[t2] = 9999
	}
	vocab["injected"] = 0
	for i := range idf {
		idf[i] = -1
	}
	after := vz.Transform(doc)
	if len(before) != len(after) {
		t.Fatalf("snapshot mutation changed Transform: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot mutation leaked into vectorizer: %v vs %v", before, after)
		}
	}

	// Restore must also defend against later mutation of its inputs.
	vocab2, idf2, _, _ := vz.Snapshot()
	restored, err := Restore(vocab2, idf2, nDocs, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := restored.Transform(doc)
	for t2 := range vocab2 {
		vocab2[t2] = 0
	}
	for i := range idf2 {
		idf2[i] = 0
	}
	got := restored.Transform(doc)
	if len(got) != len(want) {
		t.Fatalf("Restore aliased its inputs: %v vs %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Restore aliased its inputs: %v vs %v", got, want)
		}
	}
}

// bitmapCorpus is a corpus of n terms: term i is fmt.Sprintf("w%05d", i),
// so vocabulary index i is term i, and document frequencies vary with i
// so IDF weights differ. At n > 4096 the vocabulary spans two summary
// words of the scorer's touched bitmap.
func bitmapCorpus(n int) []string {
	docs := make([]string, 8)
	for i := 0; i < n; i++ {
		for d := 0; d <= i%len(docs); d++ {
			docs[(i+d)%len(docs)] += fmt.Sprintf("w%05d ", i)
		}
	}
	return docs
}

// termsAt builds a document touching the given vocabulary indices, index
// k of them repeated k+1 times, plus a term outside the vocabulary.
func termsAt(idx ...int) string {
	var b strings.Builder
	for k, i := range idx {
		for r := 0; r <= k; r++ {
			fmt.Fprintf(&b, "w%05d ", i)
		}
	}
	b.WriteString("zz_unknown")
	return b.String()
}

// checkScorer holds one scorer's DotNormalized and Vector to Transform,
// bit for bit, on every document in order.
func checkScorer(t *testing.T, label string, vz *Vectorizer, s *Scorer, docs []string) {
	t.Helper()
	weights := make([]float64, vz.VocabSize())
	for i := range weights {
		weights[i] = math.Sin(float64(i)*1.7) * 0.3
	}
	for _, doc := range docs {
		want := vz.Transform(doc)
		got := s.Vector(doc)
		if len(got) != len(want) {
			t.Fatalf("%s doc %.40q: Vector has %d features, Transform %d", label, doc, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
				t.Fatalf("%s doc %.40q: feature %d is %+v, Transform's %+v", label, doc, i, got[i], want[i])
			}
		}
		dot, _ := s.DotNormalized(doc, weights)
		if wantDot := refDot(want, weights); math.Float64bits(dot) != math.Float64bits(wantDot) {
			t.Fatalf("%s doc %.40q: dot %v, reference %v", label, doc, dot, wantDot)
		}
	}
}

// TestScorerBitmapBoundaries: touched indices on the bitmap's word and
// summary-word boundaries come back in ascending order with their exact
// values, and a document leaves no bit behind for the next one to read
// (each document below shares a bitmap word with the one before it).
func TestScorerBitmapBoundaries(t *testing.T) {
	for _, opts := range []Options{{}, {SublinearTF: true}} {
		vz := NewVectorizer(opts)
		vz.Fit(bitmapCorpus(5000))
		last := vz.VocabSize() - 1
		if last < 4096 {
			t.Fatalf("vocabulary of %d terms does not reach index 4096", vz.VocabSize())
		}
		docs := []string{
			termsAt(0, 63, 64, 4095, 4096, last),
			termsAt(63),
			termsAt(4096, 64, 4095),
			termsAt(last, 0),
			termsAt(),
			termsAt(1, 62, 65, 4094, 4097, last-1),
			termsAt(last, 4096, 4095, 64, 63, 0),
		}
		s := vz.NewScorer()
		for round := 0; round < 2; round++ {
			checkScorer(t, fmt.Sprintf("opts %+v round %d", opts, round), vz, s, docs)
		}
	}
}

// TestScorerRefit: a scorer built before its vectorizer was fitted, and
// reused across refits that grow and shrink the vocabulary, resizes its
// scratch and stays bit-identical to Transform.
func TestScorerRefit(t *testing.T) {
	vz := NewVectorizer(Options{})
	s := vz.NewScorer()
	for _, n := range []int{100, 5000, 300} {
		vz.Fit(bitmapCorpus(n))
		last := vz.VocabSize() - 1
		checkScorer(t, fmt.Sprintf("vocab %d", vz.VocabSize()), vz, s, []string{
			termsAt(0, 63, 64, last),
			termsAt(last, 1),
			termsAt(0, 4095, 4096, 4999),
		})
	}
}
