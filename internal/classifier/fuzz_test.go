package classifier

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"doxmeter/internal/sgd"
	"doxmeter/internal/tfidf"
)

// fuzzClassifiers trains small classifiers (one per vectorizer config) on a
// fixed corpus; the fuzz target compares the fused kernel against the
// reference path on each.
func fuzzClassifiers(f *testing.F) []*Classifier {
	f.Helper()
	docs := []string{
		"name john smith address 12 main st phone 555 0100 email j@x.com",
		"dropped by anon dox name age city state zip paypal skype",
		"the quick brown fox jumps over the lazy dog",
		"lol nice thread bump pic related",
		"café 東京 résumé naïve wörld user_99 mixed123",
		strings.Repeat("victim info leak account password ", 6),
	}
	labels := []bool{true, true, false, false, false, true}
	var out []*Classifier
	for _, topts := range []tfidf.Options{
		{},
		{Bigrams: true, SublinearTF: true},
	} {
		clf, err := Train(rand.New(rand.NewSource(42)), docs, labels, Options{
			TFIDF: topts,
			SGD:   sgd.Options{Epochs: 5},
		})
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, clf)
	}
	return out
}

// FuzzScorerEquivalence is the differential fuzz target for the fused
// inference kernel: for arbitrary UTF-8 (and invalid-UTF-8) input, the
// fused tokenize→TF-IDF→margin pass must produce a margin bit-identical to
// the reference Decision(Transform(doc)) path, the same token count, and
// the same flagged verdict.
func FuzzScorerEquivalence(f *testing.F) {
	clfs := fuzzClassifiers(f)
	for _, s := range []string{
		"",
		"name address phone",
		"é",  // one multibyte rune: below the 2-rune token floor
		"éé", // length-2 token made of multibyte runes
		"日本 東京 café",
		"Éé ÉÉ éÉ",
		"ſtreet Kelvin K", // runes whose case-fold crosses into ASCII
		"user_99 mixed123 __ 99",
		"\xff\xfe broken \xc3 utf8",
		strings.Repeat("name age city ", 30),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		wantTokens := len(tfidf.Tokenize(doc))
		for ci, clf := range clfs {
			var r Result
			clf.ScoreInto(doc, &r)
			ref := clf.ScoreReference(doc)
			if math.Float64bits(r.Score) != math.Float64bits(ref) {
				t.Fatalf("clf %d doc %q: fused margin %v (bits %x) != reference %v (bits %x)",
					ci, doc, r.Score, math.Float64bits(r.Score), ref, math.Float64bits(ref))
			}
			if r.Tokens != wantTokens {
				t.Fatalf("clf %d doc %q: fused tokens %d != %d", ci, doc, r.Tokens, wantTokens)
			}
			wantDox := ref >= 0 && !(clf.minTokens > 0 && wantTokens < clf.minTokens)
			if r.IsDox != wantDox {
				t.Fatalf("clf %d doc %q: fused verdict %v != reference %v", ci, doc, r.IsDox, wantDox)
			}
		}
	})
}

// TestScoreBatchIntoShortOut guards the out-slice length contract.
func TestScoreBatchIntoShortOut(t *testing.T) {
	exs := paperExamples(t)[:600]
	var docs []string
	var labels []bool
	for _, ex := range exs {
		docs = append(docs, ex.Body)
		labels = append(labels, ex.IsDox)
	}
	clf, err := Train(rand.New(rand.NewSource(12)), docs, labels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short out slice accepted")
		}
	}()
	clf.ScoreBatchInto([]string{"a", "b"}, make([]Result, 1), 1)
}
