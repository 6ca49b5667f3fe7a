// Package tfidf implements a TF-IDF text vectorizer equivalent to
// scikit-learn's TfidfVectorizer with default parameters, which is exactly
// what the paper's dox classifier uses (§3.1.2: "transformed each labeled
// training example into a TF-IDF vector (using the system's TfidfVectorizer
// class)" with defaults, no stop-word removal).
//
// Matching sklearn 0.17 defaults:
//   - token pattern (?u)\b\w\w+\b — word characters, length >= 2
//   - lowercase = true
//   - smooth_idf = true: idf(t) = ln((1+n)/(1+df(t))) + 1
//   - sublinear_tf = false: raw term counts
//   - norm = 'l2': vectors are L2-normalized
//
// Vectors are sparse: documents average a few hundred distinct terms against
// vocabularies of tens of thousands.
package tfidf

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode"
)

// Feature is one nonzero vector component.
type Feature struct {
	Index int
	Value float64
}

// Vector is a sparse document vector, sorted by Index.
type Vector []Feature

// Dot computes the inner product of two sparse vectors.
func (v Vector) Dot(o Vector) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(v) && j < len(o) {
		switch {
		case v[i].Index == o[j].Index:
			sum += v[i].Value * o[j].Value
			i++
			j++
		case v[i].Index < o[j].Index:
			i++
		default:
			j++
		}
	}
	return sum
}

// Norm returns the L2 norm.
func (v Vector) Norm() float64 {
	var sum float64
	for _, f := range v {
		sum += f.Value * f.Value
	}
	return math.Sqrt(sum)
}

// Tokenize splits text per the sklearn default token pattern: maximal runs
// of Unicode word characters (letters, digits, underscore) of length >= 2,
// lowercased. Length is measured in runes, matching sklearn's \w\w+ which
// requires two *characters* — a single multibyte rune ("é", one CJK
// character) is not a token even though it spans several bytes. Exported so
// the extractor's statistical scorer can share the exact tokenization.
func Tokenize(text string) []string {
	out := make([]string, 0, len(text)/6)
	start, runes := -1, 0
	flush := func(end int, src string) {
		if start >= 0 && runes >= 2 {
			out = append(out, strings.ToLower(src[start:end]))
		}
		start, runes = -1, 0
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			if start < 0 {
				start = i
			}
			runes++
		} else {
			flush(i, text)
		}
	}
	flush(len(text), text)
	return out
}

// Options configures the vectorizer. The zero value gives sklearn defaults.
type Options struct {
	// SublinearTF replaces raw term counts with 1+ln(tf); an ablation knob
	// (sklearn sublinear_tf).
	SublinearTF bool
	// Bigrams adds adjacent-token bigrams to the vocabulary (sklearn
	// ngram_range=(1,2)); an ablation knob.
	Bigrams bool
	// MinDF drops terms appearing in fewer than MinDF documents (default
	// 1, i.e. keep everything).
	MinDF int
}

// Vectorizer maps documents to TF-IDF vectors. Fit it once on a training
// corpus, then Transform any document. A Vectorizer is immutable after Fit
// and safe for concurrent Transform calls.
type Vectorizer struct {
	opts  Options
	vocab vocabTable // term → index; term i weighs idf[i]
	idf   []float64
	nDocs int
}

// NewVectorizer returns an unfitted vectorizer.
func NewVectorizer(opts Options) *Vectorizer {
	if opts.MinDF < 1 {
		opts.MinDF = 1
	}
	return &Vectorizer{opts: opts}
}

// VocabSize returns the fitted vocabulary size.
func (vz *Vectorizer) VocabSize() int { return vz.vocab.len() }

// NumDocs returns the size of the fitting corpus.
func (vz *Vectorizer) NumDocs() int { return vz.nDocs }

func (vz *Vectorizer) terms(text string) []string {
	toks := Tokenize(text)
	if !vz.opts.Bigrams {
		return toks
	}
	out := make([]string, 0, 2*len(toks))
	out = append(out, toks...)
	for i := 0; i+1 < len(toks); i++ {
		out = append(out, toks[i]+" "+toks[i+1])
	}
	return out
}

// Fit learns the vocabulary and IDF weights from the corpus. The pass runs
// through the byte-level scanner shared with the fused scorer, so no
// per-token []string or ToLower copies are materialized: the only string
// allocations are the one canonical key per distinct term. Document
// frequency is tracked with a last-seen document index instead of a
// per-document seen set, which counts each term at most once per document
// exactly as the reference two-map formulation did.
func (vz *Vectorizer) Fit(docs []string) {
	// df is per-term document frequency, last the last-seen document index
	// (int32: corpora are far below 2^31 documents). Stats live in one
	// 8-byte-entry slab indexed through the map, so a first-seen term costs
	// its canonical string plus amortized slab growth rather than a separate
	// heap node per term.
	type dfStat struct{ df, last int32 }
	idx := make(map[string]int32)
	slab := make([]dfStat, 0, 1024)
	z := tokenizer{tok: make([]byte, 0, 64)}
	var prev, bigram []byte
	for di, d := range docs {
		di32 := int32(di)
		prev = prev[:0]
		note := func(key []byte) {
			if i, ok := idx[string(key)]; ok {
				if e := &slab[i]; e.last != di32 {
					e.last = di32
					e.df++
				}
				return
			}
			idx[string(key)] = int32(len(slab))
			slab = append(slab, dfStat{df: 1, last: di32})
		}
		z.doc, z.i = d, 0
		for t, _, ok := z.next(); ok; t, _, ok = z.next() {
			note(t)
			if vz.opts.Bigrams {
				if len(prev) > 0 {
					bigram = append(append(append(bigram[:0], prev...), ' '), t...)
					note(bigram)
				}
				prev = append(prev[:0], t...)
			}
		}
	}
	terms := make([]string, 0, len(idx))
	for t, i := range idx {
		if int(slab[i].df) >= vz.opts.MinDF {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms) // deterministic index assignment
	vz.vocab = newVocabTable(terms)
	vz.idf = make([]float64, len(terms))
	vz.nDocs = len(docs)
	for i, t := range terms {
		// Smoothed IDF, sklearn formula.
		vz.idf[i] = math.Log(float64(1+vz.nDocs)/float64(1+slab[idx[t]].df)) + 1
	}
}

// Transform converts one document to a normalized TF-IDF vector. Terms not
// in the fitted vocabulary are ignored.
func (vz *Vectorizer) Transform(doc string) Vector {
	counts := make(map[int]float64)
	for _, t := range vz.terms(doc) {
		if idx := find(&vz.vocab, hashOf(t), t); idx >= 0 {
			counts[idx]++
		}
	}
	vec := make(Vector, 0, len(counts))
	for idx, tf := range counts {
		if vz.opts.SublinearTF {
			tf = 1 + math.Log(tf)
		}
		vec = append(vec, Feature{Index: idx, Value: tf * vz.idf[idx]})
	}
	sort.Slice(vec, func(i, j int) bool { return vec[i].Index < vec[j].Index })
	// L2 normalize.
	if n := vec.Norm(); n > 0 {
		for i := range vec {
			vec[i].Value /= n
		}
	}
	return vec
}

// TransformAll vectorizes a batch. One fused scratch (see Scorer.Vector,
// bit-identical to Transform) is reused across the whole batch, so the
// per-document cost is the retained Vector plus nothing.
func (vz *Vectorizer) TransformAll(docs []string) []Vector {
	out := make([]Vector, len(docs))
	s := vz.NewScorer()
	for i, d := range docs {
		out[i] = s.Vector(d)
	}
	return out
}

// FitTransform fits on docs and returns their vectors.
func (vz *Vectorizer) FitTransform(docs []string) []Vector {
	vz.Fit(docs)
	return vz.TransformAll(docs)
}

// Snapshot exports the fitted state for persistence, rebuilding the
// term → index map from the vocabulary table. The returned map and slice
// are fresh copies: a Vectorizer is immutable after Fit, and handing out
// live state would let a caller's mutation corrupt every concurrent
// Transform.
func (vz *Vectorizer) Snapshot() (vocab map[string]int, idf []float64, nDocs int, opts Options) {
	n := vz.vocab.len()
	vocab = make(map[string]int, n)
	for i := 0; i < n; i++ {
		vocab[string(vz.vocab.term(i))] = i
	}
	idf = make([]float64, len(vz.idf))
	copy(idf, vz.idf)
	return vocab, idf, vz.nDocs, vz.opts
}

// Restore rebuilds a fitted vectorizer from a Snapshot. It copies its
// inputs for the same immutability reason Snapshot does. The vocabulary
// indices must be exactly 0..len(vocab)-1, one weight each in idf: a
// snapshot read back from disk that breaks this is rejected with an error
// rather than left to panic inside a later Transform.
func Restore(vocab map[string]int, idf []float64, nDocs int, opts Options) (*Vectorizer, error) {
	if len(idf) != len(vocab) {
		return nil, fmt.Errorf("tfidf: restore: %d idf weights for %d vocabulary terms", len(idf), len(vocab))
	}
	terms := make([]string, len(vocab))
	seen := make([]bool, len(vocab))
	for t, i := range vocab {
		if i < 0 || i >= len(terms) || seen[i] {
			return nil, fmt.Errorf("tfidf: restore: vocabulary index %d for %q is out of range or taken", i, t)
		}
		terms[i], seen[i] = t, true
	}
	f := make([]float64, len(idf))
	copy(f, idf)
	return &Vectorizer{opts: opts, vocab: newVocabTable(terms), idf: f, nDocs: nDocs}, nil
}
