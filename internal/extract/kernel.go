// Fused zero-allocation extraction kernel. A Kernel runs the whole
// extractor — profile URLs, labeled account lines, name/age fields,
// phones, emails, IPs, credit lines — in one case-folding pass plus one
// Aho–Corasick anchor scan over the folded bytes, replacing the reference
// path's per-regex strings.Contains probes and full-text regex scans.
// Anchor hits (hosts, label aliases, field labels, credit leads) dispatch
// to small hand-rolled matchers that replicate each reference regex's
// leftmost-first semantics exactly on the hit's neighborhood.
//
// Equivalence contract with the regex reference path (ExtractReference):
//
//   - The fold buffer is foldLower(text) built once into reusable scratch
//     with an ASCII fast path. The kernel only proceeds when every rune
//     folds to the same byte width as the original, which makes folded
//     offsets equal original offsets and (?i)-literal matching on the
//     folded bytes byte-exact. The rare width-changing inputs (U+017F
//     long s, U+212A Kelvin, U+0130 dotted İ, invalid UTF-8) fall back to
//     the reference path wholesale, so equivalence is by construction
//     there.
//   - Every hand-rolled matcher reproduces its regex's backtracking
//     preference order (greedy optionals unwound most-recent-first,
//     alternations in listed order), its FindAll non-overlap rule
//     (continue after each match end), and its capture extents, so every
//     captured string is the identical substring of the original text.
//   - Extracted strings are slices of the input text (or of per-line
//     scratch in the rare non-contiguous credit-alias case), never copies,
//     matching what regexp submatches return.
//
// Equivalence is enforced by bitwise table tests per matcher, a
// differential fuzz target (FuzzExtractKernelEquivalence), and a check of
// every flagged document of a study corpus against ExtractReference
// (TestStudyKernelEquivalence in internal/core).
//
// A Kernel owns reusable scratch and is NOT safe for concurrent use; hand
// one to each worker (internal/core pins one per PrepareBatch worker) or
// use Extract/ExtractWith, which draw from an internal sync.Pool.
package extract

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"doxmeter/internal/acmatch"
	"doxmeter/internal/netid"
)

// anchorKind classifies an automaton pattern by the matcher it feeds.
type anchorKind uint8

const (
	anchorHost   anchorKind = iota // "facebook.com/" …: profile-URL matcher
	anchorAlias                    // "fb", "skype name" …: labeled-line matcher
	anchorName                     // "name": name + first-name matchers
	anchorAge                      // "age": age matcher
	anchorCredit                   // "dropped by" …: credit-line matcher
)

type anchorPat struct {
	kind anchorKind
	net  netid.Network // anchorHost only
}

var (
	anchorAC   *acmatch.Matcher
	anchorInfo []anchorPat
	anchorPats []string

	// Byte-class tables mirroring the reference regex character classes.
	captureClassFold [256]bool // (?i)[A-Za-z0-9._-] on folded bytes: [a-z0-9._-]
	tokenClass       [256]bool // tokenRe: [A-Za-z0-9._-]
	emailLocalClass  [256]bool // [A-Za-z0-9._%+-]
	emailDomainClass [256]bool // [A-Za-z0-9.-]
	handleClass      [256]bool // creditHandleRe: [A-Za-z0-9_]
)

func init() {
	add := func(p string, m anchorPat) {
		anchorPats = append(anchorPats, p)
		anchorInfo = append(anchorInfo, m)
	}
	// Host anchors include the mandatory '/' from the URL patterns, so a
	// hit guarantees the path position where the capture begins.
	for _, n := range netid.All() {
		if h, ok := urlHostHints[n]; ok {
			add(h+"/", anchorPat{kind: anchorHost, net: n})
		}
	}
	aliasKeys := make([]string, 0, len(labelAliases))
	for k := range labelAliases {
		aliasKeys = append(aliasKeys, k)
	}
	sort.Strings(aliasKeys)
	for _, k := range aliasKeys {
		add(k, anchorPat{kind: anchorAlias})
	}
	add("name", anchorPat{kind: anchorName})
	add("age", anchorPat{kind: anchorAge})
	for _, h := range creditHints {
		add(h, anchorPat{kind: anchorCredit})
	}
	anchorAC = acmatch.New(anchorPats)

	for b := byte('a'); b <= 'z'; b++ {
		captureClassFold[b], tokenClass[b] = true, true
		emailLocalClass[b], emailDomainClass[b], handleClass[b] = true, true, true
	}
	for b := byte('A'); b <= 'Z'; b++ {
		tokenClass[b] = true
		emailLocalClass[b], emailDomainClass[b], handleClass[b] = true, true, true
	}
	for b := byte('0'); b <= '9'; b++ {
		captureClassFold[b], tokenClass[b] = true, true
		emailLocalClass[b], emailDomainClass[b], handleClass[b] = true, true, true
	}
	for _, b := range []byte("._-") {
		captureClassFold[b], tokenClass[b] = true, true
	}
	for _, b := range []byte("._%+-") {
		emailLocalClass[b] = true
	}
	for _, b := range []byte(".-") {
		emailDomainClass[b] = true
	}
	handleClass['_'] = true
}

// Kernel is the reusable fused extraction kernel. Create one per worker
// with NewKernel.
type Kernel struct {
	fold []byte        // foldLower(text), offset-aligned with text
	hits []acmatch.Hit // anchor hits from the single AC scan
	tok  []byte        // lowered label key for map lookups

	// Credit-line cleaning scratch: cleanA is the paren-stripped line,
	// cleanB the connective-replaced one; offA/offB map each byte back to
	// its absolute offset in the original text (-1 for synthesized commas).
	cleanA, cleanB []byte
	offA, offB     []int32

	digit bool // text contains an ASCII digit
	at    bool // text contains '@'
}

// NewKernel returns a fused extraction kernel with pre-sized scratch. A
// Kernel is not safe for concurrent use; pin one per worker, or use the
// package-level Extract/ExtractWith which pool kernels internally.
func NewKernel() *Kernel {
	return &Kernel{
		fold:   make([]byte, 0, 4096),
		hits:   make([]acmatch.Hit, 0, 64),
		tok:    make([]byte, 0, 32),
		cleanA: make([]byte, 0, 128),
		cleanB: make([]byte, 0, 128),
		offA:   make([]int32, 0, 128),
		offB:   make([]int32, 0, 128),
	}
}

var kernelPool = sync.Pool{New: func() any { return NewKernel() }}

// ExtractInto runs the fused extractor over text, filling e in place (its
// map and slices are reused across calls, so steady-state extraction of a
// recurring document shape allocates nothing). The result is bit-identical
// to ExtractReference — see the package comment's equivalence contract.
func (k *Kernel) ExtractInto(text string, e *Extraction, opts Options) {
	resetExtraction(e)
	if !k.foldScan(text) {
		// Width-changing fold (long s, Kelvin, dotted İ, invalid UTF-8):
		// folded offsets no longer align with the original bytes, so run
		// the reference path instead of reasoning about remapped spans.
		*e = *ExtractReference(text, opts)
		return
	}
	k.scanURLs(text, e)
	k.scanLabeledLines(text, e, opts)
	k.scanFields(text, e)
	k.scanCredits(text, e)
	finishExtraction(e)
}

func resetExtraction(e *Extraction) {
	if e.Accounts == nil {
		e.Accounts = make(map[netid.Network]string, 8)
	} else {
		clear(e.Accounts)
	}
	e.CreditAliases = e.CreditAliases[:0]
	e.CreditHandles = e.CreditHandles[:0]
	e.FirstName, e.LastName, e.Age = "", "", 0
	e.Phones, e.Emails, e.IPs = e.Phones[:0], e.Emails[:0], e.IPs[:0]
}

// finishExtraction restores the reference path's nil-vs-empty slice
// convention: fields with no matches stay nil.
func finishExtraction(e *Extraction) {
	if len(e.CreditAliases) == 0 {
		e.CreditAliases = nil
	}
	if len(e.CreditHandles) == 0 {
		e.CreditHandles = nil
	}
	if len(e.Phones) == 0 {
		e.Phones = nil
	}
	if len(e.Emails) == 0 {
		e.Emails = nil
	}
	if len(e.IPs) == 0 {
		e.IPs = nil
	}
}

// foldTab maps each ASCII byte to its lowercase fold; classTab records the
// digit (bit 0) and '@' (bit 1) prefilter classes. Table lookups keep the
// all-ASCII fast path of foldText down to two loads per byte.
var foldTab, classTab [utf8.RuneSelf]byte

func init() {
	for b := 0; b < utf8.RuneSelf; b++ {
		c := byte(b)
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		foldTab[b] = c
	}
	for b := '0'; b <= '9'; b++ {
		classTab[b] = 1
	}
	classTab['@'] = 2
}

// foldScan builds foldLower(text) into k.fold, records the digit/@
// prefilter flags, and runs the anchor automaton over the folded bytes —
// all in a single pass, so the folded buffer is never traversed twice.
// The hits land in k.hits exactly as anchorAC.Scan(k.fold, ...) would
// report them. It reports false when some rune folds to a different byte
// width than the original, the misalignment case ExtractInto bails on.
func (k *Kernel) foldScan(text string) bool {
	if cap(k.fold) < len(text)+utf8.UTFMax {
		k.fold = make([]byte, 0, len(text)+utf8.UTFMax)
	}
	k.hits = k.hits[:0]
	delta, firstOut := anchorAC.DFA()
	s := int32(0)
	fold := k.fold[:len(text):cap(k.fold)]
	var flags byte
	i := 0
	for ; i < len(text); i++ {
		b := text[i]
		if b >= utf8.RuneSelf {
			break
		}
		fb := foldTab[b]
		fold[i] = fb
		flags |= classTab[b]
		s = delta[s*256+int32(fb)]
		if s >= firstOut {
			k.hits = anchorAC.Emit(s, i+1, k.hits)
		}
	}
	k.fold = fold[:i]
	for i < len(text) {
		b := text[i]
		if b < utf8.RuneSelf {
			fb := foldTab[b]
			k.fold = append(k.fold, fb)
			flags |= classTab[b]
			s = delta[s*256+int32(fb)]
			if s >= firstOut {
				k.hits = anchorAC.Emit(s, len(k.fold), k.hits)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		lr := r
		switch r {
		case 'ſ':
			lr = 's'
		case 'K':
			lr = 'k'
		default:
			lr = unicode.ToLower(r)
		}
		n0 := len(k.fold)
		k.fold = utf8.AppendRune(k.fold, lr)
		if len(k.fold)-n0 != size {
			return false
		}
		for j := n0; j < len(k.fold); j++ {
			s = delta[s*256+int32(k.fold[j])]
			if s >= firstOut {
				k.hits = anchorAC.Emit(s, j+1, k.hits)
			}
		}
		i += size
	}
	k.digit = flags&1 != 0
	k.at = flags&2 != 0
	return true
}

// scanURLs is the fused form of extractURLs: host anchors replace the
// FindAllStringSubmatch scans, with identical per-network first-surviving-
// match semantics (reserved paths and invalid shapes are consumed but not
// committed).
func (k *Kernel) scanURLs(text string, e *Extraction) {
	var lastEnd [8]int // per-network end of the previous match (FindAll rule)
	for _, h := range k.hits {
		info := anchorInfo[h.Pattern]
		if info.kind != anchorHost {
			continue
		}
		n := info.net
		if _, done := e.Accounts[n]; done {
			continue
		}
		if h.End-len(anchorPats[h.Pattern]) < lastEnd[n] {
			continue // host span consumed by this network's previous match
		}
		cs, ce, ok := k.urlCapture(n, h.End)
		if !ok {
			continue
		}
		lastEnd[n] = ce
		raw := text[cs:ce]
		if reservedPath(n, raw) {
			continue
		}
		user := strings.Trim(raw, "._-")
		if validUsername(user) {
			e.Accounts[n] = user
		}
	}
}

// urlCapture extracts the username capture group starting at p, the byte
// after the host's '/'. It reproduces the per-network pattern tails:
// YouTube's optional (?:user/|channel/|c/) alternation (falling back to
// capturing the prefix word itself when nothing follows it, as regex
// backtracking does) and Google+'s optional '+'.
func (k *Kernel) urlCapture(n netid.Network, p int) (cs, ce int, ok bool) {
	fold := k.fold
	switch n {
	case netid.YouTube:
		for _, pre := range [...]string{"user/", "channel/", "c/"} {
			if p+len(pre) <= len(fold) && string(fold[p:p+len(pre)]) == pre {
				q := p + len(pre)
				if end := captureRunEnd(fold, q); end > q {
					return q, end, true
				}
				break // empty capture after prefix: backtrack to no-prefix
			}
		}
	case netid.GooglePlus:
		if p < len(fold) && fold[p] == '+' {
			if end := captureRunEnd(fold, p+1); end > p+1 {
				return p + 1, end, true
			}
			return 0, 0, false // '+' not in the class, so no-prefix also fails
		}
	}
	if end := captureRunEnd(fold, p); end > p {
		return p, end, true
	}
	return 0, 0, false
}

func captureRunEnd(fold []byte, q int) int {
	for q < len(fold) && captureClassFold[fold[q]] {
		q++
	}
	return q
}

// scanLabeledLines is the fused form of extractLabeledLines: only lines
// containing an alias anchor are visited (a line can set an account only
// if its lowered label is an alias — or, in greedy mode, an alias plus
// "s" — and either way the folded line contains the alias as a
// substring). Lines are processed top-down exactly once, preserving the
// reference's per-network first-line-wins state evolution.
func (k *Kernel) scanLabeledLines(text string, e *Extraction, opts Options) {
	done := 0
	for _, h := range k.hits {
		if anchorInfo[h.Pattern].kind != anchorAlias {
			continue
		}
		if h.End <= done {
			continue // same line as the previous alias hit
		}
		start := h.End - len(anchorPats[h.Pattern])
		ls := 0
		if j := bytes.LastIndexByte(k.fold[:start], '\n'); j >= 0 {
			ls = j + 1
		}
		le := len(text)
		if j := bytes.IndexByte(k.fold[h.End:], '\n'); j >= 0 {
			le = h.End + j
		}
		done = le
		k.labelLine(text[ls:le], e, opts)
	}
}

// labelLine replicates splitLabel + alias lookup + bestUsernameToken on
// one original-text line, with the label lowered into reusable scratch so
// the map lookup does not allocate.
func (k *Kernel) labelLine(line string, e *Extraction, opts Options) {
	s := strings.TrimSpace(line)
	if s == "" {
		return
	}
	var labelRaw, rest string
	found, bare := false, false
	if i := strings.IndexByte(s, ':'); i > 0 && i <= 24 {
		labelRaw, rest, found = s[:i], s[i+1:], true
	} else if i := strings.IndexByte(s, ';'); i > 0 && i <= 24 {
		labelRaw, rest, found = s[:i], s[i+1:], true
	} else if i := strings.Index(s, " - "); i > 0 && i+1 <= 24 {
		labelRaw, rest, found = s[:i], s[i+3:], true
	} else if i := strings.IndexAny(s, " \t"); i > 0 {
		labelRaw, rest, found, bare = s[:i], s[i:], true, true
	}
	if !found {
		return
	}
	k.lowerLabel(strings.TrimSpace(labelRaw))
	n, ok := labelAliases[string(k.tok)]
	if !ok && bare {
		return // bare form requires a known label (splitLabel's rule)
	}
	if !ok && opts.Greedy && len(k.tok) > 0 && k.tok[len(k.tok)-1] == 's' {
		n, ok = labelAliases[string(k.tok[:len(k.tok)-1])]
	}
	if !ok {
		return
	}
	if _, have := e.Accounts[n]; have {
		return // URL extraction or an earlier line already resolved this network
	}
	if user, ok := bestTokenFused(rest, opts.Greedy); ok {
		e.Accounts[n] = user
	}
}

// lowerLabel lowers s into k.tok with strings.ToLower's per-rune
// semantics (not foldLower's: the reference labels are lowered with
// strings.ToLower, so e.g. a long-s stays a long-s and misses the alias
// map in both paths).
func (k *Kernel) lowerLabel(s string) {
	k.tok = k.tok[:0]
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			k.tok = append(k.tok, b)
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		k.tok = utf8.AppendRune(k.tok, unicode.ToLower(r))
		i += size
	}
}

// bestTokenFused is bestUsernameToken without the token-slice
// materialization: maximal tokenRe-class runs of length >= 2 are
// candidates when they pass validUsername and the stop-word filter;
// exactly one candidate commits (greedy mode commits to the first).
func bestTokenFused(rest string, greedy bool) (string, bool) {
	var first string
	count := 0
	for i := 0; i < len(rest); {
		if !tokenClass[rest[i]] {
			i++
			continue
		}
		j := i + 1
		for j < len(rest) && tokenClass[rest[j]] {
			j++
		}
		if j-i >= 2 {
			t := rest[i:j]
			if validUsername(t) && !stopToken(t) {
				count++
				if count == 1 {
					first = t
				} else if greedy {
					return first, true
				} else {
					return "", false
				}
			}
		}
		i = j
	}
	if count == 1 {
		return first, true
	}
	return "", false
}
