package tfidf

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestVocabForcedCollisions puts every term on one probe chain with one
// fingerprint: the chain starts at the last slot and wraps, and the
// fingerprint is 0, so only the key bytes tell the terms apart. Each term
// must still find its own index, and keys that share a prefix with a term
// or extend one must miss.
func TestVocabForcedCollisions(t *testing.T) {
	terms := []string{"ab", "abc", "abcd", "b", "ba"}
	tb := allocVocabTable(terms)
	h := uint64(len(tb.slots) - 1) // fingerprint 0, home = last slot
	if fp, home := place(h, uint64(len(tb.slots)-1)); fp != 0 || int(home) != len(tb.slots)-1 {
		t.Fatalf("forced hash places at fp %d home %d", fp, home)
	}
	for i := range terms {
		tb.insert(h, i)
	}
	for i, term := range terms {
		if got := find(&tb, h, []byte(term)); got != i {
			t.Errorf("find(%q) = %d, want %d", term, got, i)
		}
		if got := find(&tb, h, term); got != i {
			t.Errorf("find(string %q) = %d, want %d", term, got, i)
		}
	}
	for _, oov := range []string{"", "a", "abcde", "bab", "bb", "abd", "c"} {
		if got := find(&tb, h, []byte(oov)); got != -1 {
			t.Errorf("out-of-vocabulary %q found at %d", oov, got)
		}
	}
}

// TestVocabFingerprintCollision takes two real tokens whose hashes share a
// fingerprint and, in tables of 2 and 4 slots, a home slot (found by
// search), and checks the table keeps them apart through the normal hash
// path.
func TestVocabFingerprintCollision(t *testing.T) {
	a, b := "tje00", "t13apt"
	for _, mask := range []uint64{1, 3} {
		fa, ha := place(hashOf(a), mask)
		fb, hb := place(hashOf(b), mask)
		if fa != fb || ha != hb {
			t.Fatalf("%q and %q no longer collide at mask %d", a, b, mask)
		}
	}
	both := newVocabTable([]string{a, b})
	if find(&both, hashOf(a), a) != 0 || find(&both, hashOf(b), b) != 1 {
		t.Fatalf("colliding terms %q and %q not kept apart", a, b)
	}
	one := newVocabTable([]string{a})
	if got := find(&one, hashOf(b), b); got != -1 {
		t.Fatalf("%q matched %q on fingerprint alone (index %d)", b, a, got)
	}
}

// sameHomeOOV returns n tokens outside terms whose home slot in tb equals
// the home slot of term, so their lookups walk term's probe chain.
func sameHomeOOV(tb *vocabTable, term string, terms []string, n int) []string {
	mask := uint64(len(tb.slots) - 1)
	_, want := place(hashOf(term), mask)
	in := make(map[string]bool, len(terms))
	for _, t := range terms {
		in[t] = true
	}
	var out []string
	for i := 0; len(out) < n; i++ {
		tok := "q" + strconv.Itoa(i)
		if _, home := place(hashOf(tok), mask); home == want && !in[tok] {
			out = append(out, tok)
		}
	}
	return out
}

// TestVocabOOVNeighbours drives out-of-vocabulary tokens that share a
// prefix with vocabulary terms, or share their probe chain, through the
// fused scorer and the reference Transform: both must ignore them and
// agree bit for bit.
func TestVocabOOVNeighbours(t *testing.T) {
	vz, weights := scorerFixture(Options{})
	terms := make([]string, vz.VocabSize())
	for i := range terms {
		terms[i] = string(vz.vocab.term(i))
	}
	chain := sameHomeOOV(&vz.vocab, "email", terms, 4)
	docs := []string{
		"emai emails email_ emailx email",
		"nam names named name",
		"fo foxy fox_ the",
		strings.Join(chain, " ") + " email",
		strings.Join(chain, " "),
	}
	s := vz.NewScorer()
	for _, doc := range docs {
		want := vz.Transform(doc)
		for _, f := range want {
			if term := terms[f.Index]; !strings.Contains(" "+doc+" ", " "+term+" ") {
				t.Errorf("doc %q: reference counted %q, which it does not contain", doc, term)
			}
		}
		got, _ := s.DotNormalized(doc, weights)
		if ref := refDot(want, weights); math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("doc %q: fused %v != reference %v", doc, got, ref)
		}
	}
	for _, tok := range chain {
		if idx := vocabIndex(vz, tok); idx != -1 {
			t.Errorf("probe-chain neighbour %q found at %d", tok, idx)
		}
	}
	if vocabIndex(vz, "email") < 0 {
		t.Fatal("fixture lost \"email\"")
	}
}

// TestVocabWidthChangingLowercase covers tokens whose lowercase form has a
// different byte length than the input (İ → i, ẞ → ß, K → k): the hash
// the tokenizer folds while appending must equal the hash of the
// vocabulary's stored lowercase term.
func TestVocabWidthChangingLowercase(t *testing.T) {
	for _, opts := range []Options{{}, {Bigrams: true}} {
		vz := NewVectorizer(opts)
		// \u0130 (İ) lowers to 1-byte "i", \u1e9e (ẞ) to 2-byte "ß", and the
		// Kelvin sign \u212a to 1-byte "k".
		vz.Fit([]string{"\u0130STANBUL stra\u1e9ee \u212aELVIN", "istanbul straße kelvin", "plain words here"})
		for _, term := range []string{"istanbul", "straße", "kelvin"} {
			if vocabIndex(vz, term) < 0 {
				t.Fatalf("opts %+v: %q missing from vocabulary", opts, term)
			}
		}
		weights := make([]float64, vz.VocabSize())
		for i := range weights {
			weights[i] = float64(i%7) - 3
		}
		if got := len(vz.Transform("\u0130stanbul STRA\u1e9eE \u212aelvin")); got < 3 {
			t.Errorf("opts %+v: width-changing tokens hit %d vocabulary terms, want 3", opts, got)
		}
		s := vz.NewScorer()
		for _, doc := range []string{
			"\u0130stanbul STRA\u1e9eE \u212aelvin",
			"\u0130STANBUL straße KELVIN words",
			"\u0130\u0130 \u1e9e\u1e9e \u212a\u212a", // two-rune tokens, none in the vocabulary
		} {
			want := vz.Transform(doc)
			fused := s.Vector(doc)
			if !reflect.DeepEqual(fused, want) {
				t.Errorf("opts %+v doc %q: fused %v != reference %v", opts, doc, fused, want)
			}
			got, _ := s.DotNormalized(doc, weights)
			if ref := refDot(want, weights); math.Float64bits(got) != math.Float64bits(ref) {
				t.Errorf("opts %+v doc %q: fused dot %v != reference %v", opts, doc, got, ref)
			}
		}
	}
}

// TestVocabBigrams checks the bigram keys built in the scorer's scratch
// hit the same table entries Fit stored, including bigrams of multibyte
// tokens, and that reversed (unseen) bigrams miss.
func TestVocabBigrams(t *testing.T) {
	vz := NewVectorizer(Options{Bigrams: true})
	vz.Fit([]string{"new york city", "café 東京 café", "old town"})
	for _, bg := range []string{"new york", "york city", "café 東京", "東京 café", "old town"} {
		if vocabIndex(vz, bg) < 0 {
			t.Errorf("bigram %q missing", bg)
		}
	}
	for _, bg := range []string{"york new", "city york", "town old"} {
		if vocabIndex(vz, bg) >= 0 {
			t.Errorf("unseen bigram %q found", bg)
		}
	}
	s := vz.NewScorer()
	for _, doc := range []string{"york new city", "NEW YORK", "Café 東京", "town old town"} {
		if fused, want := s.Vector(doc), vz.Transform(doc); !reflect.DeepEqual(fused, want) {
			t.Errorf("doc %q: fused %v != reference %v", doc, fused, want)
		}
	}
}

// TestSnapshotRestoreRoundTrip: Snapshot → Restore rebuilds the same
// term → index map, and the restored vectorizer's margins are
// bit-identical to the original's in every option combination.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, opts := range []Options{{}, {Bigrams: true, SublinearTF: true}} {
		vz, weights := scorerFixture(opts)
		vocab, idf, nDocs, o := vz.Snapshot()
		if len(vocab) != vz.VocabSize() {
			t.Fatalf("snapshot holds %d terms, vocabulary %d", len(vocab), vz.VocabSize())
		}
		for term, i := range vocab {
			if vocabIndex(vz, term) != i {
				t.Fatalf("snapshot maps %q to %d, table to %d", term, i, vocabIndex(vz, term))
			}
		}
		back, err := Restore(vocab, idf, nDocs, o)
		if err != nil {
			t.Fatal(err)
		}
		vocab2, idf2, _, _ := back.Snapshot()
		if !reflect.DeepEqual(vocab, vocab2) || !reflect.DeepEqual(idf, idf2) {
			t.Fatal("Snapshot → Restore → Snapshot changed the vocabulary")
		}
		a, b := vz.NewScorer(), back.NewScorer()
		for _, doc := range scorerDocs {
			x, _ := a.DotNormalized(doc, weights)
			y, _ := b.DotNormalized(doc, weights)
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("opts %+v doc %q: restored margin %v != original %v", opts, doc, y, x)
			}
		}
	}
}

// TestRestoreRejectsMalformed: a snapshot whose indices are not exactly
// 0..n-1, or whose idf length differs, is an error, not a later panic.
func TestRestoreRejectsMalformed(t *testing.T) {
	for name, c := range map[string]struct {
		vocab map[string]int
		idf   []float64
	}{
		"out of range": {map[string]int{"aa": 0, "bb": 2}, []float64{1, 1}},
		"negative":     {map[string]int{"aa": -1}, []float64{1}},
		"shared index": {map[string]int{"aa": 0, "bb": 0}, []float64{1, 1}},
		"idf length":   {map[string]int{"aa": 0, "bb": 1}, []float64{1}},
	} {
		if _, err := Restore(c.vocab, c.idf, 2, Options{}); err == nil {
			t.Errorf("%s: malformed snapshot accepted", name)
		}
	}
	if vz, err := Restore(map[string]int{}, nil, 0, Options{}); err != nil || vz.VocabSize() != 0 {
		t.Fatalf("empty snapshot: %v, %v", vz, err)
	}
}
