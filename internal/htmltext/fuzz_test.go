package htmltext

import (
	"strings"
	"testing"
)

// FuzzConvert hardens the converter against adversarial imageboard HTML:
// it must never panic, and simple well-formed wrappers must round-trip
// their text content.
func FuzzConvert(f *testing.F) {
	seeds := []string{
		"",
		"plain text",
		"<p>para</p>",
		"<ul><li>a</li><li>b</li></ul>",
		"<ol><li>1</li></ol>",
		"a<br>b<br/>c",
		"<script>evil()</script>ok",
		"<blockquote>&gt;implying</blockquote>",
		"unterminated <tag",
		"</" + strings.Repeat("ul>", 50),
		"<li>" + strings.Repeat("<ul>", 100),
		"&amp;&lt;&gt;&#39;&quot;",
		"<span class=\"quote\">&gt;&gt;123</span><br>reply",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := Convert(s)
		// Output never grows more than entity expansion allows.
		if len(out) > 2*len(s)+16 {
			t.Fatalf("output ballooned: %d -> %d", len(s), len(out))
		}
	})
}

// probeOracle is the original counting probe, kept as the reference the
// one-pass IsProbablyHTML must agree with: per marker, count its
// non-overlapping ASCII-case-folded occurrences inside the 2048-byte
// sample, and call the document HTML at two or more in total.
func probeOracle(s string) bool {
	sample := s
	if len(sample) > 2048 {
		sample = sample[:2048]
	}
	tags := 0
	for _, marker := range htmlMarkers {
		tags += countFoldASCII(sample, marker)
	}
	return tags >= 2
}

// countFoldASCII counts non-overlapping occurrences of the ASCII-lowercase
// needle in s, folding A-Z in s on the fly.
func countFoldASCII(s, needle string) int {
	count := 0
	for i := 0; i+len(needle) <= len(s); {
		match := true
		for j := 0; j < len(needle); j++ {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != needle[j] {
				match = false
				break
			}
		}
		if match {
			count++
			i += len(needle)
		} else {
			i++
		}
	}
	return count
}

// FuzzProbeEquivalence holds the one-pass IsProbablyHTML to the counting
// oracle on arbitrary bytes.
func FuzzProbeEquivalence(f *testing.F) {
	pad := strings.Repeat("x", 2045)
	for _, s := range []string{
		"",
		"plain text paste with no markup",
		"<p>one</p>",
		"<p>one<br>two",
		"<BR><P>",
		"<DiV>x</DiV>",
		"<SPAN><A href>",
		"<A href>", // "<a " needs the space, folded 'A' or not
		"<<br",
		"<<<br<<p",
		"</",
		"</ </",
		"x < y and y > z",
		pad + "<br",        // first marker ends exactly at byte 2048
		pad + "<p" + "<br", // second marker straddles byte 2048
		pad + "x<li>",      // marker's last byte falls past the sample
		pad + "</" + pad,
		"\xff\xfe<br\xc3<p",
		"<\xc3\x9fr<li",
		strings.Repeat("<", 3000) + "<p<p",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := IsProbablyHTML(s), probeOracle(s); got != want {
			t.Fatalf("IsProbablyHTML(%q) = %v, oracle %v", s, got, want)
		}
	})
}
