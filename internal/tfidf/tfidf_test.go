package tfidf

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello World", []string{"hello", "world"}},
		{"a bb ccc", []string{"bb", "ccc"}}, // single chars dropped
		{"Name: John.Smith_99", []string{"name", "john", "smith_99"}},
		{"", nil},
		{"!!!", nil},
		{"IP 60.1.2.3", []string{"ip", "60"}},
		{"foo\nbar\tbaz", []string{"foo", "bar", "baz"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("héllo wörld 日本語")
	if len(got) != 3 {
		t.Fatalf("unicode tokenization = %v", got)
	}
}

// TestTokenizeRuneLength is the regression test for the byte-vs-rune length
// bug: sklearn's \w\w+ requires at least two characters, so one multibyte
// rune (2+ bytes) must not become a token.
func TestTokenizeRuneLength(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"é", nil}, // 2 bytes, 1 rune: not a token
		{"日", nil}, // 3 bytes, 1 rune: not a token
		{"éé", []string{"éé"}},
		{"日本", []string{"日本"}},
		{"é a 日 b", nil}, // all single-rune/char fragments dropped
		{"café 東京 x", []string{"café", "東京"}},
		{"É", nil},             // uppercase single rune, still dropped
		{"Éé", []string{"éé"}}, // lowercased multibyte token
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVectorDot(t *testing.T) {
	a := Vector{{0, 1}, {2, 2}, {5, 3}}
	b := Vector{{1, 10}, {2, 4}, {5, 1}}
	if got := a.Dot(b); got != 11 {
		t.Errorf("Dot = %f, want 11", got)
	}
	if got := a.Dot(Vector{}); got != 0 {
		t.Errorf("Dot with empty = %f", got)
	}
	if a.Dot(b) != b.Dot(a) {
		t.Error("Dot not symmetric")
	}
}

func TestFitTransformBasics(t *testing.T) {
	docs := []string{
		"the cat sat on the mat",
		"the dog sat on the log",
		"cats and dogs living together",
	}
	vz := NewVectorizer(Options{})
	vecs := vz.FitTransform(docs)
	if vz.VocabSize() == 0 {
		t.Fatal("empty vocabulary")
	}
	if vz.NumDocs() != 3 {
		t.Fatalf("NumDocs = %d", vz.NumDocs())
	}
	for i, v := range vecs {
		if len(v) == 0 {
			t.Fatalf("doc %d has empty vector", i)
		}
		if math.Abs(v.Norm()-1) > 1e-9 {
			t.Fatalf("doc %d norm = %f, want 1 (L2 normalized)", i, v.Norm())
		}
		for j := 1; j < len(v); j++ {
			if v[j].Index <= v[j-1].Index {
				t.Fatal("vector indices not strictly increasing")
			}
		}
	}
}

// vocabIndex looks a term up in the fitted vocabulary table, -1 if absent.
func vocabIndex(vz *Vectorizer, term string) int {
	return find(&vz.vocab, hashOf(term), term)
}

func TestIDFWeighting(t *testing.T) {
	// "common" appears in every doc, "rare" in one; rare must out-weigh
	// common in the doc containing both once each.
	docs := []string{
		"common rare", "common filler1", "common filler2", "common filler3",
	}
	vz := NewVectorizer(Options{})
	vecs := vz.FitTransform(docs)
	v := vecs[0]
	var commonW, rareW float64
	commonIdx := vocabIndex(vz, "common")
	rareIdx := vocabIndex(vz, "rare")
	for _, f := range v {
		if f.Index == commonIdx {
			commonW = f.Value
		}
		if f.Index == rareIdx {
			rareW = f.Value
		}
	}
	if rareW <= commonW {
		t.Errorf("rare weight %f <= common weight %f", rareW, commonW)
	}
}

func TestSmoothedIDFFormula(t *testing.T) {
	docs := []string{"aa bb", "aa cc", "aa dd", "bb cc"}
	vz := NewVectorizer(Options{})
	vz.Fit(docs)
	// df(aa)=3, n=4 => idf = ln(5/4)+1
	want := math.Log(5.0/4.0) + 1
	if got := vz.idf[vocabIndex(vz, "aa")]; math.Abs(got-want) > 1e-12 {
		t.Errorf("idf(aa) = %f, want %f", got, want)
	}
	// df(dd)=1 => ln(5/2)+1
	want = math.Log(5.0/2.0) + 1
	if got := vz.idf[vocabIndex(vz, "dd")]; math.Abs(got-want) > 1e-12 {
		t.Errorf("idf(dd) = %f, want %f", got, want)
	}
}

func TestTransformUnknownTerms(t *testing.T) {
	vz := NewVectorizer(Options{})
	vz.Fit([]string{"alpha beta", "beta gamma"})
	v := vz.Transform("delta epsilon zeta")
	if len(v) != 0 {
		t.Errorf("all-unknown doc should vectorize empty, got %v", v)
	}
	v = vz.Transform("alpha delta")
	if len(v) != 1 {
		t.Errorf("expected exactly the known term, got %v", v)
	}
}

func TestBigramsOption(t *testing.T) {
	docs := []string{"new york city", "york new pizza"}
	uni := NewVectorizer(Options{})
	uni.Fit(docs)
	bi := NewVectorizer(Options{Bigrams: true})
	bi.Fit(docs)
	if bi.VocabSize() <= uni.VocabSize() {
		t.Errorf("bigram vocab %d should exceed unigram %d", bi.VocabSize(), uni.VocabSize())
	}
	if vocabIndex(bi, "new york") < 0 {
		t.Error("bigram 'new york' missing from vocabulary")
	}
	if vocabIndex(uni, "new york") >= 0 {
		t.Error("unigram vectorizer learned a bigram")
	}
}

func TestSublinearTF(t *testing.T) {
	docs := []string{"word word word word other", "other thing"}
	raw := NewVectorizer(Options{})
	rawVecs := raw.FitTransform(docs)
	sub := NewVectorizer(Options{SublinearTF: true})
	subVecs := sub.FitTransform(docs)
	// With sublinear TF the repeated word's relative dominance shrinks.
	ratio := func(v Vector, vz *Vectorizer) float64 {
		var w, o float64
		for _, f := range v {
			if f.Index == vocabIndex(vz, "word") {
				w = f.Value
			}
			if f.Index == vocabIndex(vz, "other") {
				o = f.Value
			}
		}
		return w / o
	}
	if ratio(subVecs[0], sub) >= ratio(rawVecs[0], raw) {
		t.Error("sublinear TF did not damp repeated-term weight")
	}
}

func TestMinDF(t *testing.T) {
	docs := []string{"keep drop1", "keep drop2", "keep drop3"}
	vz := NewVectorizer(Options{MinDF: 2})
	vz.Fit(docs)
	if vocabIndex(vz, "keep") < 0 {
		t.Error("term above MinDF was dropped")
	}
	if vocabIndex(vz, "drop1") >= 0 {
		t.Error("term below MinDF was kept")
	}
}

func TestDeterministicIndexing(t *testing.T) {
	docs := []string{"zebra apple mango", "apple banana"}
	a := NewVectorizer(Options{})
	a.Fit(docs)
	b := NewVectorizer(Options{})
	b.Fit(docs)
	av, _, _, _ := a.Snapshot()
	bv, _, _, _ := b.Snapshot()
	if !reflect.DeepEqual(av, bv) {
		t.Error("vocabulary indexing not deterministic")
	}
	// Sorted assignment: apple < banana < mango < zebra.
	if av["apple"] != 0 || av["zebra"] != 3 {
		t.Errorf("vocab not sorted: %v", av)
	}
}

func TestDotOrderInvariantProperty(t *testing.T) {
	vz := NewVectorizer(Options{})
	vz.Fit([]string{"aa bb cc dd ee ff gg hh", "bb dd ff hh", "aa cc ee gg"})
	f := func(x, y string) bool {
		a, b := vz.Transform(x), vz.Transform(y)
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedProperty(t *testing.T) {
	vz := NewVectorizer(Options{})
	vz.Fit([]string{"alpha beta gamma delta", "beta gamma", "alpha delta epsilon"})
	f := func(s string) bool {
		v := vz.Transform(s + " alpha") // guarantee at least one known term
		n := v.Norm()
		return len(v) == 0 || math.Abs(n-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
