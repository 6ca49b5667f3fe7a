package extract

import "testing"

// FuzzExtract ensures the extractor is total: arbitrary text never panics
// and never yields structurally invalid results.
func FuzzExtract(f *testing.F) {
	seeds := []string{
		"",
		"Name: John Smith\nAge: 21",
		"FB user1\nfbs: a - b - c",
		"Dropped by A and @b, thanks to C (@c)",
		"IP: 999.999.999.999 Phone: (000) 000-0000",
		"Facebook: https://facebook.com/....",
		"Skype:;:;:;",
		"age: -5\nage: 101\nAge: 55",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e := Extract(s)
		for n, u := range e.Accounts {
			if u == "" {
				t.Fatalf("empty username stored for %v", n)
			}
		}
		if e.Age < 0 || e.Age > 99 {
			t.Fatalf("age out of range: %d", e.Age)
		}
		// Key determinism.
		if e.AccountSetKey() != Extract(s).AccountSetKey() {
			t.Fatal("extraction not deterministic")
		}
	})
}

// FuzzExtractKernelEquivalence is the differential oracle for the fused
// kernel: on arbitrary input, the fused path must be bit-identical to the
// reference extractor, field by field, in both normal and greedy modes.
func FuzzExtractKernelEquivalence(f *testing.F) {
	seeds := []string{
		"",
		"Name: John Smith\nAge: 21\nFB: john.smith88",
		// Reserved paths must be denied, later real profiles must survive.
		"https://youtube.com/watch?v=x\nyoutube.com/user/realvlogger",
		"twitter.com/intent then twitter.com/realtarget",
		"facebook.com/profile.php?id=1 facebook.com/real.user",
		"instagram.com/p/Cxy instagram.com/the.gram",
		// Dash-separated labels and hyphenated lookalikes.
		"Skype Name - john.doe88\ne-mail - nobody\n2016 - present",
		"Twitter - handle99\nTwitter- nope\nTwitter -nope",
		// CRLF line endings around every line-anchored matcher.
		"Name: Jane Doe\r\nAge: 33\r\ndropped by creditor1\r\n",
		// Width-changing folds exercise the reference fallback.
		"\u017Fkype: longs\nyoutube.com/\u212Aelvin\n\u0130RL NAME: Dotted",
		"invalid \xff utf8 \xfe Name: X Y",
		// Phone/email/IP/credit junk.
		"+1 (555) 123-4567 a@b.comx@d.com 12.34.56.78.90",
		"dropped by x,(@a) thanks to y99z and @hh, trailing...",
		"fbs: one two\ntwitter: a - b - c\nage 44 age99 page: 12",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k := NewKernel()
		for _, greedy := range []bool{false, true} {
			opts := Options{Greedy: greedy}
			ref := ExtractReference(s, opts)
			var fused Extraction
			k.ExtractInto(s, &fused, opts)
			if field, ok := equalExtractions(ref, &fused); !ok {
				t.Fatalf("greedy=%v input %q: kernel diverges on %s:\nref   %+v\nfused %+v",
					greedy, s, field, ref, &fused)
			}
			// The pooled public path must agree with the explicit kernel.
			if pub := ExtractWith(s, opts); pub.AccountSetKey() != ref.AccountSetKey() {
				t.Fatalf("greedy=%v input %q: pooled path key %q != reference %q",
					greedy, s, pub.AccountSetKey(), ref.AccountSetKey())
			}
		}
	})
}
