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
//     array indexed by vocabulary position, with a two-level touched
//     bitmap replacing the map[int]float64; counts are order-independent,
//     and float64(count) is exactly the float64 the reference's repeated
//     ++ reaches, so totals match.
//   - The touched indices are read back by walking the bitmap, which
//     yields them in ascending order before any float math, so the norm
//     and dot accumulate in exactly the index order the reference path
//     uses after its sort.Slice.
//   - Every float64 expression mirrors the reference: value = tf*idf
//     (or (1+ln tf)*idf), normSq += value*value, norm = Sqrt(normSq),
//     contribution = weights[idx] * (value/norm). Same operands, same
//     order, same rounding; each value is computed once and reused.
//
// A Scorer owns reusable scratch and is NOT safe for concurrent use; hand
// one to each worker (classifier.Classifier keeps a sync.Pool).
package tfidf

import (
	"math"
	"math/bits"
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

	tf []uint32 // dense term counts, indexed by vocab position
	// The touched bitmap: bit i of words is set when tf[i] > 0, and bit j
	// of summary when words[j] is nonzero. gather walks both in ascending
	// order and clears them behind it.
	words   []uint64
	summary []uint64
	idx     []int32   // touched vocab indices, ascending (filled by gather)
	val     []float64 // their feature values, before normalization
	tok     []byte    // current token, lowercased, reused across tokens
	prev    []byte    // previous emitted token (bigram mode)
	bigram  []byte    // bigram key scratch ("prev cur")
	tokens  int       // unigram tokens seen by the last scan
}

// NewScorer returns a fused-inference kernel over the fitted vocabulary.
// The scorer holds a dense count scratch of VocabSize entries; share the
// Vectorizer, not the Scorer, across goroutines.
func (vz *Vectorizer) NewScorer() *Scorer {
	// prev and bigram stay nil until bigram mode first appends to them.
	s := &Scorer{
		vz:  vz,
		idx: make([]int32, 0, 256),
		val: make([]float64, 0, 256),
		tok: make([]byte, 0, 64),
	}
	s.size()
	return s
}

// size allocates the dense scratch for the vectorizer's live vocabulary.
func (s *Scorer) size() {
	n := len(s.vz.idf)
	s.tf = make([]uint32, n)
	s.words = make([]uint64, (n+63)/64)
	s.summary = make([]uint64, (len(s.words)+63)/64)
}

// reset readies the scratch for a new document. The dense counts and the
// bitmap are already clear: gather clears them as it reads them.
func (s *Scorer) reset() {
	if len(s.tf) != len(s.vz.idf) {
		// The vectorizer was fitted after this scorer was built (a pooled
		// pre-fit scorer): resize the dense scratch to the live vocabulary.
		s.size()
	}
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
		w := idx >> 6
		s.words[w] |= 1 << (idx & 63)
		s.summary[w>>6] |= 1 << (w & 63)
	}
	s.tf[idx]++
}

// gather walks the touched bitmap in ascending index order, filling idx
// and val with each touched index and its feature value, and clears the
// counts and the bitmap behind it. It visits only nonzero words, so its
// cost is the document's distinct terms plus one summary word per 4096
// vocabulary entries.
func (s *Scorer) gather() {
	s.idx, s.val = s.idx[:0], s.val[:0]
	for si, sw := range s.summary {
		if sw == 0 {
			continue
		}
		s.summary[si] = 0
		for ; sw != 0; sw &= sw - 1 {
			w := si<<6 | bits.TrailingZeros64(sw)
			word := s.words[w]
			s.words[w] = 0
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				s.idx = append(s.idx, int32(i))
				s.val = append(s.val, s.value(i))
				s.tf[i] = 0
			}
		}
	}
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
	s.gather()
	var normSq float64
	for _, v := range s.val {
		normSq += v * v
	}
	// Mirror the reference exactly: Transform normalizes only when the
	// norm is positive (an empty vector keeps norm 0 and dot 0).
	norm := math.Sqrt(normSq)
	for k, idx := range s.idx {
		v := s.val[k]
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
	s.gather()
	vec := make(Vector, len(s.idx))
	for k, idx := range s.idx {
		vec[k] = Feature{Index: int(idx), Value: s.val[k]}
	}
	if n := vec.Norm(); n > 0 {
		for i := range vec {
			vec[i].Value /= n
		}
	}
	return vec
}

// value reproduces Transform's per-feature weight for a touched index.
func (s *Scorer) value(idx int) float64 {
	tf := float64(s.tf[idx])
	if s.vz.opts.SublinearTF {
		tf = 1 + math.Log(tf)
	}
	return tf * s.vz.idf[idx]
}
