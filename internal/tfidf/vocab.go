package tfidf

import "math/bits"

// vocabTable is the fitted vocabulary: term → index as one open-addressed
// hash table over a single byte slab, the only in-memory form of the
// vocabulary. Every term's bytes sit back to back in keys, in index
// order, so term i is keys[offs[i]:offs[i+1]] and no term is a heap string
// of its own. Each slot holds a 32-bit fingerprint of the term's hash and
// the term's index; a lookup probes linearly from the hash's home slot,
// compares key bytes only on a fingerprint match, and stops at the first
// empty slot. The table is at most half full, so probe chains stay short.
//
// Callers hash the key themselves with hashStep, which is what lets the
// tokenizer fold the hash into its byte loop instead of making a second
// pass over each token.
type vocabTable struct {
	slots []vocabSlot // power-of-two length, load <= 1/2
	keys  []byte      // every term's bytes, concatenated in index order
	offs  []uint32    // term i is keys[offs[i]:offs[i+1]]; len = terms+1
}

// vocabSlot is one table entry: the hash fingerprint of the term and its
// index plus one, so the zero slot reads as empty.
type vocabSlot struct {
	fp  uint32
	idx uint32
}

// FNV-1a over the token's lowercased bytes.
const (
	hashSeed  uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// hashStep folds one byte into a running key hash; a key's hash is
// hashSeed folded through every byte in order.
func hashStep(h uint64, c byte) uint64 { return (h ^ uint64(c)) * hashPrime }

// hashOf hashes a whole key, equal to folding hashStep over its bytes.
func hashOf[K string | []byte](key K) uint64 {
	h := hashSeed
	for i := 0; i < len(key); i++ {
		h = hashStep(h, key[i])
	}
	return h
}

// place splits a key hash into its fingerprint and home slot. FNV-1a mixes
// its high bits best, so they are the fingerprint and are also folded into
// the low bits the home slot reads.
func place(h uint64, mask uint64) (fp uint32, home uint64) {
	return uint32(h >> 32), (h ^ h>>32) & mask
}

// newVocabTable lays out terms (term i gets index i) in one slab and
// indexes them. Terms must be distinct.
func newVocabTable(terms []string) vocabTable {
	t := allocVocabTable(terms)
	for i, term := range terms {
		t.insert(hashOf(term), i)
	}
	return t
}

// allocVocabTable copies terms into the key slab and sizes an empty slot
// array for them; insert then indexes each term.
func allocVocabTable(terms []string) vocabTable {
	n := 0
	for _, term := range terms {
		n += len(term)
	}
	t := vocabTable{
		keys: make([]byte, 0, n),
		offs: make([]uint32, 1, len(terms)+1),
	}
	for _, term := range terms {
		t.keys = append(t.keys, term...)
		t.offs = append(t.offs, uint32(len(t.keys)))
	}
	size := 1
	if len(terms) > 0 {
		size = 1 << bits.Len(uint(2*len(terms)-1)) // >= 2*len(terms)
	}
	t.slots = make([]vocabSlot, size)
	return t
}

// insert puts index idx, whose term hashes to h, into the first empty slot
// of h's probe chain.
func (t *vocabTable) insert(h uint64, idx int) {
	mask := uint64(len(t.slots) - 1)
	fp, i := place(h, mask)
	for t.slots[i].idx != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = vocabSlot{fp: fp, idx: uint32(idx) + 1}
}

// len returns the number of terms.
func (t *vocabTable) len() int { return max(len(t.offs)-1, 0) }

// term returns term i's bytes, aliasing the slab.
func (t *vocabTable) term(i int) []byte { return t.keys[t.offs[i]:t.offs[i+1]] }

// find returns the index of key, whose hash is h, or -1 when key is not in
// the vocabulary (or the table is the zero value). It allocates nothing.
func find[K string | []byte](t *vocabTable, h uint64, key K) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	fp, i := place(h, mask)
	for {
		sl := t.slots[i]
		if sl.idx == 0 {
			return -1
		}
		if sl.fp == fp {
			if idx := int(sl.idx - 1); string(t.term(idx)) == string(key) {
				return idx
			}
		}
		i = (i + 1) & mask
	}
}
