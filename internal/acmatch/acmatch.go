// Package acmatch implements a byte-level Aho–Corasick multi-pattern
// matcher, the anchor engine behind the fused extraction kernel
// (internal/extract). One automaton is built once from a fixed pattern set
// (profile-URL hosts, account-label aliases, field labels, credit-line
// leads) and then a single Scan pass over a case-folded document reports
// every occurrence of every pattern — replacing the per-pattern
// strings.Contains probes and per-regex scans the reference extractor pays.
//
// The automaton is a goto/fail trie flattened into dense arrays with the
// failure function pre-applied (a true DFA), so the scan loop is one table
// load per input byte with no branching on failure chains. Scan appends
// into a caller-owned hit slice, so steady-state scanning allocates
// nothing.
package acmatch

// Hit is one pattern occurrence: Pattern is the index into the pattern
// slice given to New, End is the byte offset one past the match (the match
// spans [End-len(pattern), End)).
type Hit struct {
	Pattern int
	End     int
}

// Matcher is an immutable multi-pattern automaton. Safe for concurrent
// Scan calls: scanning only reads the transition tables.
//
// States are renumbered so every output state sits at the top of the ID
// range (>= firstOut): the scan loop then detects matches with a single
// register compare instead of two out-table loads per input byte.
type Matcher struct {
	// delta is the DFA transition table: delta[state*256+b] is the next
	// state after reading byte b.
	delta []int32
	// firstOut is the lowest output-state ID; states >= firstOut have at
	// least one pattern ending there.
	firstOut int32
	// out[s-firstOut] indexes into outPat: the patterns ending at output
	// state s are outPat[out[s-firstOut]:out[s-firstOut+1]].
	out    []int32
	outPat []int32
}

// New builds the automaton for the given patterns. Patterns must be
// non-empty; they may contain arbitrary bytes, but callers matching
// case-insensitively should pre-fold both patterns and scan input.
func New(patterns []string) *Matcher {
	states := 1
	for _, p := range patterns {
		if p == "" {
			panic("acmatch: empty pattern")
		}
		states += len(p)
	}
	goto_ := make([]int32, states*256)
	for i := range goto_ {
		goto_[i] = -1
	}
	outSets := make([][]int32, states)
	next := int32(1)
	for pi, p := range patterns {
		s := int32(0)
		for i := 0; i < len(p); i++ {
			b := p[i]
			if t := goto_[s*256+int32(b)]; t >= 0 {
				s = t
			} else {
				goto_[s*256+int32(b)] = next
				s = next
				next++
			}
		}
		outSets[s] = append(outSets[s], int32(pi))
	}
	states = int(next)

	// BFS to compute failure links, merging output sets, then close the
	// goto function into a total DFA transition table.
	fail := make([]int32, states)
	queue := make([]int32, 0, states)
	for b := 0; b < 256; b++ {
		if t := goto_[b]; t >= 0 {
			fail[t] = 0
			queue = append(queue, t)
		} else {
			goto_[b] = 0
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		if f := fail[s]; len(outSets[f]) > 0 {
			outSets[s] = append(outSets[s], outSets[f]...)
		}
		for b := int32(0); b < 256; b++ {
			t := goto_[s*256+b]
			if t < 0 {
				goto_[s*256+b] = goto_[fail[s]*256+b]
				continue
			}
			fail[t] = goto_[fail[s]*256+b]
			queue = append(queue, t)
		}
	}

	// Renumber states so output states occupy the top of the ID range:
	// non-output states keep low IDs (the root stays 0 — patterns are
	// non-empty, so it never carries output), output states follow. The
	// scan loop then spots matches with one `s >= firstOut` compare.
	nOut := 0
	for s := 0; s < states; s++ {
		if len(outSets[s]) > 0 {
			nOut++
		}
	}
	firstOut := int32(states - nOut)
	perm := make([]int32, states)
	lo, hi := int32(0), firstOut
	for s := 0; s < states; s++ {
		if len(outSets[s]) > 0 {
			perm[s] = hi
			hi++
		} else {
			perm[s] = lo
			lo++
		}
	}
	delta := make([]int32, states*256)
	for s := 0; s < states; s++ {
		ns := perm[s]
		for b := int32(0); b < 256; b++ {
			delta[ns*256+b] = perm[goto_[int32(s)*256+b]]
		}
	}
	m := &Matcher{
		delta:    delta,
		firstOut: firstOut,
		out:      make([]int32, nOut+1),
	}
	for s := 0; s < states; s++ {
		if len(outSets[s]) == 0 {
			continue
		}
		oi := perm[s] - firstOut
		m.out[oi+1] = int32(len(outSets[s]))
	}
	for i := 1; i <= nOut; i++ {
		m.out[i] += m.out[i-1]
	}
	m.outPat = make([]int32, 0, m.out[nOut])
	order := make([]int32, nOut)
	for s := 0; s < states; s++ {
		if len(outSets[s]) > 0 {
			order[perm[s]-firstOut] = int32(s)
		}
	}
	for _, s := range order {
		m.outPat = append(m.outPat, outSets[s]...)
	}
	return m
}

// Scan finds every occurrence of every pattern in text, appending to hits
// (pass hits[:0] of a reusable buffer for an allocation-free scan) and
// returning the extended slice. Hits are reported in increasing End order;
// several patterns ending at the same byte are reported in automaton
// output order.
func (m *Matcher) Scan(text []byte, hits []Hit) []Hit {
	s, fo := int32(0), m.firstOut
	for i := 0; i < len(text); i++ {
		s = m.delta[s*256+int32(text[i])]
		if s >= fo {
			for o, oEnd := m.out[s-fo], m.out[s-fo+1]; o < oEnd; o++ {
				hits = append(hits, Hit{Pattern: int(m.outPat[o]), End: i + 1})
			}
		}
	}
	return hits
}

// DFA exposes the raw transition machinery for a caller that fuses the
// scan into its own byte loop (the extraction kernel folds and scans in
// one pass). delta is the dense table indexed state*256+int32(b) starting
// from state 0; it must not be modified. States >= firstOut have patterns
// ending there — pass them to Emit.
func (m *Matcher) DFA() (delta []int32, firstOut int32) { return m.delta, m.firstOut }

// Emit appends the hits for output state s (>= DFA's firstOut) ending at
// byte offset end, exactly as Scan would report them.
func (m *Matcher) Emit(s int32, end int, hits []Hit) []Hit {
	for o, oEnd := m.out[s-m.firstOut], m.out[s-m.firstOut+1]; o < oEnd; o++ {
		hits = append(hits, Hit{Pattern: int(m.outPat[o]), End: end})
	}
	return hits
}

// ScanString is Scan for string input.
func (m *Matcher) ScanString(text string, hits []Hit) []Hit {
	s, fo := int32(0), m.firstOut
	for i := 0; i < len(text); i++ {
		s = m.delta[s*256+int32(text[i])]
		if s >= fo {
			for o, oEnd := m.out[s-fo], m.out[s-fo+1]; o < oEnd; o++ {
				hits = append(hits, Hit{Pattern: int(m.outPat[o]), End: i + 1})
			}
		}
	}
	return hits
}
