// Fused zero-allocation inference kernel. A Scorer runs the whole
// per-document funnel — tokenize → TF accumulation → IDF weighting → L2
// normalization → dense weight-vector dot product — in a single pass over
// the input bytes, without materializing per-token strings, a term-count
// map, or a sparse Vector. It is the hot path behind classifier.ScoreInto;
// the Transform/Decision pair stays as the reference implementation, and
// the two are bit-identical as float64 (enforced by unit, property, fuzz
// and whole-study equivalence tests).
//
// Equivalence contract, operation by operation:
//
//   - Tokens are maximal runs of Unicode word characters with rune length
//     >= 2, lowercased rune-wise — exactly Tokenize's semantics, including
//     the multibyte rune-vs-byte length rule. The ASCII fast path lowers
//     bytes in place; the rune fallback applies unicode.ToLower, which is
//     what strings.ToLower does per rune.
//   - Term frequencies accumulate as integer counts in a dense scratch
//     array indexed by vocabulary position, with a touched-index list
//     replacing the map[int]float64; counts are order-independent, and
//     float64(count) is exactly the float64 the reference's repeated ++
//     reaches, so totals match.
//   - The touched list is sorted ascending before any float math, so the
//     norm and dot accumulate in exactly the index order the reference
//     path uses after its sort.Slice.
//   - Every float64 expression mirrors the reference: value = tf*idf
//     (or (1+ln tf)*idf), normSq += value*value, norm = Sqrt(normSq),
//     contribution = weights[idx] * (value/norm). Same operands, same
//     order, same rounding.
//
// A Scorer owns reusable scratch and is NOT safe for concurrent use; hand
// one to each worker (classifier.Classifier keeps a sync.Pool).
package tfidf

import (
	"math"
	"slices"
	"unicode"
	"unicode/utf8"
)

// asciiWordLower maps an ASCII byte to its lowercased form if it is a word
// character ([0-9A-Za-z_]), else 0.
var asciiWordLower [128]byte

func init() {
	for b := byte('0'); b <= '9'; b++ {
		asciiWordLower[b] = b
	}
	for b := byte('a'); b <= 'z'; b++ {
		asciiWordLower[b] = b
	}
	for b := byte('A'); b <= 'Z'; b++ {
		asciiWordLower[b] = b + ('a' - 'A')
	}
	asciiWordLower['_'] = '_'
}

// Scorer is a reusable fused-inference kernel bound to a fitted
// Vectorizer. Create one per worker with NewScorer.
type Scorer struct {
	vz *Vectorizer

	tf      []uint32 // dense term counts, indexed by vocab position
	touched []int32  // vocab indices with tf > 0, reset by walking this list
	tok     []byte   // current token, lowercased, reused across tokens
	prev    []byte   // previous emitted token (bigram mode)
	bigram  []byte   // bigram key scratch ("prev cur")
	tokens  int      // unigram tokens seen by the last scan
}

// NewScorer returns a fused-inference kernel over the fitted vocabulary.
// The scorer holds a dense count scratch of VocabSize entries; share the
// Vectorizer, not the Scorer, across goroutines.
func (vz *Vectorizer) NewScorer() *Scorer {
	// prev and bigram stay nil until bigram mode first appends to them.
	return &Scorer{
		vz:      vz,
		tf:      make([]uint32, len(vz.idf)),
		touched: make([]int32, 0, 256),
		tok:     make([]byte, 0, 64),
	}
}

// reset clears the dense scratch by walking the touched list, so cost is
// proportional to the previous document, not the vocabulary.
func (s *Scorer) reset() {
	if len(s.tf) != len(s.vz.idf) {
		// The vectorizer was fitted after this scorer was built (a pooled
		// pre-fit scorer): resize the dense scratch to the live vocabulary.
		s.tf = make([]uint32, len(s.vz.idf))
		s.touched = s.touched[:0]
	}
	for _, idx := range s.touched {
		s.tf[idx] = 0
	}
	s.touched = s.touched[:0]
	s.prev = s.prev[:0]
	s.tokens = 0
}

// addTerm folds a token (already lowercased, hashed by the tokenizer) into
// the TF scratch, plus the adjacent bigram when the vectorizer was fitted
// with Bigrams. Both look the vocabulary table up in place on the scratch
// bytes, so no key is materialized.
func (s *Scorer) addTerm(tok []byte, h uint64) {
	s.count(find(&s.vz.vocab, h, tok))
	if s.vz.opts.Bigrams {
		if len(s.prev) > 0 {
			s.bigram = append(s.bigram[:0], s.prev...)
			s.bigram = append(s.bigram, ' ')
			s.bigram = append(s.bigram, tok...)
			s.count(find(&s.vz.vocab, hashOf(s.bigram), s.bigram))
		}
		s.prev = append(s.prev[:0], tok...)
	}
}

// count adds one occurrence of vocabulary index idx (-1: not in the
// vocabulary) to the TF scratch.
func (s *Scorer) count(idx int) {
	if idx < 0 {
		return
	}
	if s.tf[idx] == 0 {
		s.touched = append(s.touched, int32(idx))
	}
	s.tf[idx]++
}

// tokenizer is the single-pass byte-level tokenizer shared by the scorer's
// hot path and Fit's vocabulary pass. ASCII word bytes take the table fast
// path; anything else falls back to rune decoding so the \w\w+ rune-length
// semantics match Tokenize exactly, including the multibyte rune-vs-byte
// length rule (invalid UTF-8 decodes to RuneError, which is not a word
// character — the same separator behaviour a range loop gives the reference
// tokenizer). Every lowercased byte is folded into the token's vocabulary
// hash (hashStep) as it is appended, so a lookup never re-reads the token.
type tokenizer struct {
	doc string
	i   int    // next byte of doc to read
	tok []byte // reusable token scratch; callers keep it across documents
}

// next returns the next token's lowercased bytes, valid only until the
// following call, and their hash; ok is false once doc is exhausted.
func (z *tokenizer) next() (tok []byte, h uint64, ok bool) {
	doc, i := z.doc, z.i
	tok, h = z.tok[:0], hashSeed
	runes := 0
	for i < len(doc) {
		if b := doc[i]; b < utf8.RuneSelf {
			i++
			if c := asciiWordLower[b]; c != 0 {
				tok = append(tok, c)
				h = hashStep(h, c)
				runes++
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(doc[i:])
			i += size
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				n := len(tok)
				tok = utf8.AppendRune(tok, unicode.ToLower(r))
				for _, c := range tok[n:] {
					h = hashStep(h, c)
				}
				runes++
				continue
			}
		}
		if runes >= 2 {
			z.i, z.tok = i, tok
			return tok, h, true
		}
		tok, h, runes = tok[:0], hashSeed, 0
	}
	z.i, z.tok = i, tok
	return tok, h, runes >= 2
}

// scan walks doc's tokens. When collect is true each token is folded into
// the TF scratch; either way s.tokens counts the unigram tokens.
func (s *Scorer) scan(doc string, collect bool) {
	z := tokenizer{doc: doc, tok: s.tok}
	for tok, h, ok := z.next(); ok; tok, h, ok = z.next() {
		s.tokens++
		if collect {
			s.addTerm(tok, h)
		}
	}
	s.tok = z.tok
}

// TokenCount returns the document's unigram token count — identical to
// len(Tokenize(doc)) — without allocating.
func (s *Scorer) TokenCount(doc string) int {
	s.reset()
	s.scan(doc, false)
	return s.tokens
}

// DotNormalized computes the inner product of the document's L2-normalized
// TF-IDF vector with the dense weight vector, plus the document's unigram
// token count, in one fused pass and with zero steady-state allocations.
// The result is bit-identical to weightsDot(vz.Transform(doc)): same token
// set, same accumulation order, same float64 operations.
func (s *Scorer) DotNormalized(doc string, weights []float64) (dot float64, tokens int) {
	s.reset()
	s.scan(doc, true)
	slices.Sort(s.touched)
	var normSq float64
	for _, idx := range s.touched {
		v := s.value(idx)
		normSq += v * v
	}
	// Mirror the reference exactly: Transform normalizes only when the
	// norm is positive (an empty vector keeps norm 0 and dot 0).
	norm := math.Sqrt(normSq)
	for _, idx := range s.touched {
		v := s.value(idx)
		if norm > 0 {
			v /= norm
		}
		if int(idx) < len(weights) {
			dot += weights[idx] * v
		}
	}
	return dot, s.tokens
}

// Vector materializes the document's normalized TF-IDF vector through the
// fused scratch. The result is bit-identical to vz.Transform(doc): same
// token set, same per-feature value expression, and the norm accumulates in
// ascending index order exactly as the reference does after its sort. Only
// the returned Vector allocates.
func (s *Scorer) Vector(doc string) Vector {
	s.reset()
	s.scan(doc, true)
	slices.Sort(s.touched)
	vec := make(Vector, 0, len(s.touched))
	for _, idx := range s.touched {
		vec = append(vec, Feature{Index: int(idx), Value: s.value(idx)})
	}
	if n := vec.Norm(); n > 0 {
		for i := range vec {
			vec[i].Value /= n
		}
	}
	return vec
}

// value reproduces Transform's per-feature weight for a touched index.
func (s *Scorer) value(idx int32) float64 {
	tf := float64(s.tf[idx])
	if s.vz.opts.SublinearTF {
		tf = 1 + math.Log(tf)
	}
	return tf * s.vz.idf[idx]
}
