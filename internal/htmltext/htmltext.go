// Package htmltext converts HTML fragments to semantically equivalent plain
// text, mirroring the role html2text plays in the paper's pipeline (§3.1.2):
// postings scraped from 4chan.org and 8ch.net arrive as HTML and must be
// normalized before TF-IDF vectorization so that markup tokens do not leak
// into the vocabulary.
//
// The converter implements the transformations the paper calls out — list
// tags become indented, newline-separated items — plus the handful of
// block/inline rules needed for imageboard HTML: <br> and block elements
// break lines, <blockquote> is prefixed with "> ", scripts and styles are
// dropped wholesale, and entities are decoded. It is a single-pass scanner
// with no allocation proportional to tag depth; malformed HTML degrades to
// text rather than erroring, which is what a crawler needs.
//
// Conversion state (the output buffer, list counters) is pooled: one call
// allocates only the returned string plus whatever html.UnescapeString
// needs for entity-bearing text runs.
package htmltext

import (
	"html"
	"strings"
	"sync"
)

// convState is one conversion's reusable scratch.
type convState struct {
	buf        []byte
	ordinal    []int // per-depth ordered-list counters; 0 = unordered
	atLineHead bool
}

var convPool = sync.Pool{New: func() any { return &convState{buf: make([]byte, 0, 4096)} }}

func (st *convState) writeText(s string) {
	if s == "" {
		return
	}
	st.buf = append(st.buf, s...)
	st.atLineHead = strings.HasSuffix(s, "\n")
}

func (st *convState) newline() {
	if !st.atLineHead {
		st.buf = append(st.buf, '\n')
		st.atLineHead = true
	}
}

// Convert renders an HTML fragment as plain text.
func Convert(src string) string {
	st := convPool.Get().(*convState)
	st.buf = st.buf[:0]
	st.ordinal = st.ordinal[:0]
	st.atLineHead = true
	var (
		i         int
		listDepth int
		skipUntil string
	)
	for i < len(src) {
		c := src[i]
		if c != '<' {
			j := strings.IndexByte(src[i:], '<')
			var text string
			if j < 0 {
				text = src[i:]
				i = len(src)
			} else {
				text = src[i : i+j]
				i += j
			}
			if skipUntil == "" {
				st.writeText(html.UnescapeString(text))
			}
			continue
		}
		end := strings.IndexByte(src[i:], '>')
		if end < 0 {
			// Unterminated tag: treat the rest as text.
			if skipUntil == "" {
				st.writeText(html.UnescapeString(src[i:]))
			}
			break
		}
		tag := src[i+1 : i+end]
		i += end + 1
		name, closing := parseTag(tag)
		if skipUntil != "" {
			if closing && name == skipUntil {
				skipUntil = ""
			}
			continue
		}
		switch name {
		case "script", "style":
			if !closing {
				skipUntil = name
			}
		case "br":
			st.buf = append(st.buf, '\n')
			st.atLineHead = true
		case "p", "div", "tr", "h1", "h2", "h3", "h4", "h5", "h6", "table":
			st.newline()
		case "blockquote":
			st.newline()
			if !closing {
				st.writeText("> ")
			}
		case "ul":
			if closing {
				if listDepth > 0 {
					listDepth--
					st.ordinal = st.ordinal[:listDepth]
				}
			} else {
				listDepth++
				st.ordinal = append(st.ordinal, 0)
			}
			st.newline()
		case "ol":
			if closing {
				if listDepth > 0 {
					listDepth--
					st.ordinal = st.ordinal[:listDepth]
				}
			} else {
				listDepth++
				st.ordinal = append(st.ordinal, 1)
			}
			st.newline()
		case "li":
			if closing {
				st.newline()
				continue
			}
			st.newline()
			indent := listDepth
			if indent < 1 {
				indent = 1
			}
			for k := 0; k < indent; k++ {
				st.buf = append(st.buf, ' ', ' ')
			}
			if listDepth > 0 && st.ordinal[listDepth-1] > 0 {
				st.buf = appendItoa(st.buf, st.ordinal[listDepth-1])
				st.buf = append(st.buf, '.', ' ')
				st.ordinal[listDepth-1]++
			} else {
				st.buf = append(st.buf, '*', ' ')
			}
			st.atLineHead = false
		}
	}
	out := string(collapseInPlace(st.buf))
	convPool.Put(st)
	return out
}

// parseTag extracts the lowercase tag name and whether it is a closing tag.
// Attributes and self-closing slashes are ignored.
func parseTag(tag string) (name string, closing bool) {
	tag = strings.TrimSpace(tag)
	if strings.HasPrefix(tag, "/") {
		closing = true
		tag = tag[1:]
	}
	tag = strings.TrimSuffix(tag, "/")
	for j := 0; j < len(tag); j++ {
		if tag[j] == ' ' || tag[j] == '\t' || tag[j] == '\n' {
			tag = tag[:j]
			break
		}
	}
	return strings.ToLower(strings.TrimSpace(tag)), closing
}

// collapseInPlace trims trailing spaces per line, folds runs of 2+ blank
// lines to one, and drops leading/trailing blank lines — compacting the
// buffer in place (the write cursor never passes the read cursor) instead
// of splitting into a line slice and re-joining.
func collapseInPlace(b []byte) []byte {
	w := 0
	wrote := false        // some non-blank line has been written
	pendingBlank := false // one collapsed blank line awaits between content
	for ls := 0; ls <= len(b); {
		le := ls
		for le < len(b) && b[le] != '\n' {
			le++
		}
		te := le
		for te > ls && (b[te-1] == ' ' || b[te-1] == '\t') {
			te--
		}
		if te == ls {
			if wrote {
				pendingBlank = true
			}
		} else {
			if wrote {
				b[w] = '\n'
				w++
				if pendingBlank {
					b[w] = '\n'
					w++
				}
			}
			pendingBlank = false
			w += copy(b[w:], b[ls:te])
			wrote = true
		}
		ls = le + 1
	}
	return b[:w]
}

func appendItoa(b []byte, n int) []byte {
	if n == 0 {
		return append(b, '0')
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return append(b, buf[i:]...)
}

// htmlMarkers are the tag probes IsProbablyHTML counts, ASCII-lowercase.
// Each starts with '<' and holds no other '<', so no marker can overlap
// itself, and no two share their second byte, so at most one matches at
// any position.
var htmlMarkers = [...]string{"<br", "<p", "<div", "<span", "<a ", "<ul", "<li", "</"}

// IsProbablyHTML reports whether a document looks like HTML rather than
// plain text, so the pipeline can decide whether conversion is needed: it
// does when at least two marker tags (htmlMarkers, ASCII-case-insensitive)
// start within the first 2048 bytes and end inside them.
//
// The probe runs on every plain-text paste, so it is one pass that hops
// between the sample's '<' bytes with strings.IndexByte, tests the markers
// only there and stops at the second match. Because markers cannot
// overlap, this counts exactly what per-marker non-overlapping occurrence
// counting over the sample does. It allocates nothing.
func IsProbablyHTML(s string) bool {
	sample := s
	if len(sample) > 2048 {
		sample = sample[:2048]
	}
	tags := 0
	for i := strings.IndexByte(sample, '<'); i >= 0; {
		rest := sample[i:]
		for _, marker := range htmlMarkers {
			if hasPrefixFoldASCII(rest, marker) {
				if tags++; tags == 2 {
					return true
				}
				break
			}
		}
		j := strings.IndexByte(rest[1:], '<')
		if j < 0 {
			break
		}
		i += 1 + j
	}
	return false
}

// hasPrefixFoldASCII reports whether s starts with the ASCII-lowercase
// prefix, folding A-Z in s on the fly.
func hasPrefixFoldASCII(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for j := 0; j < len(prefix); j++ {
		c := s[j]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[j] {
			return false
		}
	}
	return true
}
