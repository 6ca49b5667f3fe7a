package extract

import (
	"strings"
	"testing"

	"doxmeter/internal/netid"
)

// equalExtractions is a field-by-field bitwise comparator, distinguishing
// nil from empty slices (the reference leaves no-match fields nil and the
// kernel must too).
func equalExtractions(a, b *Extraction) (string, bool) {
	if len(a.Accounts) != len(b.Accounts) {
		return "Accounts size", false
	}
	for n, u := range a.Accounts {
		if bu, ok := b.Accounts[n]; !ok || bu != u {
			return "Accounts[" + n.String() + "]", false
		}
	}
	eqSlice := func(x, y []string) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	switch {
	case !eqSlice(a.CreditAliases, b.CreditAliases):
		return "CreditAliases", false
	case !eqSlice(a.CreditHandles, b.CreditHandles):
		return "CreditHandles", false
	case a.FirstName != b.FirstName:
		return "FirstName", false
	case a.LastName != b.LastName:
		return "LastName", false
	case a.Age != b.Age:
		return "Age", false
	case !eqSlice(a.Phones, b.Phones):
		return "Phones", false
	case !eqSlice(a.Emails, b.Emails):
		return "Emails", false
	case !eqSlice(a.IPs, b.IPs):
		return "IPs", false
	}
	return "", true
}

// checkEquivalence runs both kernels on text (in both normal and greedy
// modes) and fails on any field divergence.
func checkEquivalence(t *testing.T, text string) {
	t.Helper()
	k := NewKernel()
	for _, greedy := range []bool{false, true} {
		ref := ExtractReference(text, Options{Greedy: greedy})
		var fused Extraction
		k.ExtractInto(text, &fused, Options{Greedy: greedy})
		if field, ok := equalExtractions(ref, &fused); !ok {
			t.Errorf("greedy=%v text %q: kernel diverges on %s:\nref   %+v\nfused %+v",
				greedy, text, field, ref, &fused)
		}
	}
}

func TestKernelURLTable(t *testing.T) {
	cases := []string{
		"https://www.facebook.com/real.user99 is the profile",
		"HTTP://FACEBOOK.COM/LoudUser",
		"facebook.com/profile.php then facebook.com/realuser",
		"twitter.com/intent\ntwitter.com/sharer\ntwitter.com/target_user",
		"youtube.com/watch?v=abc123 and youtube.com/user/thechannelguy",
		"youtube.com/user/",
		"youtube.com/channel/UC12345678",
		"youtube.com/c/xy",
		"plus.google.com/+RealName",
		"plus.google.com/+",
		"plus.google.com/++double",
		"twitch.tv/directory then twitch.tv/streamer_01",
		"instagram.com/p/Cxyz123 instagram.com/the.real.gram",
		"www.twitter.com/ab",           // too short after trim
		"facebook.com/..._...",         // trims to nothing
		"facebook.com/--ab.cd--",       // trim survivors
		"facebook.com/twitter.com/bob", // capture swallows a host-looking path
		"no urls at all",
		"facebook.com but no slash",
		"https://www.youtube.com/c/",
	}
	for _, c := range cases {
		checkEquivalence(t, c)
	}
}

func TestKernelLabelTable(t *testing.T) {
	cases := []string{
		"Twitter: realhandle",
		"Twitter - realhandle",
		"Skype Name - john.doe88",
		"e-mail - someone", // hyphenated word must not become a label
		"2016 - present",   // negative lookalike
		"FB user42",
		"fb\tuser42",
		"Face; the_user",
		"Google+ - guser99",
		"IG: @nope then insta2", // tokens with @ stripped by tokenRe
		"twitter: a - b - c",    // plural/list: abstain
		"fbs: one two",          // greedy plural only
		"Skype Id: sky.per",
		"instagram: and or aka", // all stop tokens
		"tw: xy",                // too short
		"a very long label that overflows: user99",
		"label:with:many:colons: user99",
		"  \t  Twitter:   spaced_out  ",
		"Twitter -realhandle", // no space after dash: not a separator
		"Twitter- realhandle", // no space before dash either
	}
	for _, c := range cases {
		checkEquivalence(t, c)
	}
}

func TestKernelFieldsTable(t *testing.T) {
	cases := []string{
		"Name: John Smith",
		"name; jane doe",
		"NAME - Ada Lovelace",
		"  Full Name: Grace Hopper",
		"real name: tim",
		"irl name: S. Short",
		"First Name: Maria",
		"first name - Otto",
		"x real name: hidden",      // prefix without line start: no match
		"username: notaname",       // "name" mid-word: no ^\s* path
		"Name:\nJohn",              // \s* crosses the newline
		"Name:   \n",               // whitespace-only capture suppresses fallback
		"Name:\n\nfirst name: Zoe", // nameRe fails lines... or does it?
		"Age: 21",
		"age;30",
		"AGE - 7",
		"age 44",
		"age99",
		"page: 12",   // \b guard
		"age: 200",   // two-digit greed fails on third digit
		"age: 4",     // below plausibility range
		"age: 12yrs", // trailing word char
		"Age: 0x21",
		"Name: John Smith\r\nAge: 21\r\n", // CRLF line endings
	}
	for _, c := range cases {
		checkEquivalence(t, c)
	}
}

func TestKernelPhoneTable(t *testing.T) {
	cases := []string{
		"call 555-123-4567 now",
		"(555) 123-4567",
		"(555)123-4567 and (555) 1234567",
		"+1 555 123 4567",
		"+15551234567",
		"1-555-123-4567",
		"1.555.123.4567",
		"5551234567",     // no separator: no match
		"555-1234",       // too short
		"x555-123-4567y", // no \b in phoneRe: matches embedded
		"1234-567-8901",  // leading 1 consumed as country code
		"+1(555)123.4567",
		"555 123\n4567", // \s separators cross lines
		"00 555-123-4567 11",
		"+1123456789012", // 10-digit alternation inside longer run
	}
	for _, c := range cases {
		checkEquivalence(t, c)
	}
}

func TestKernelEmailIPTable(t *testing.T) {
	cases := []string{
		"mail me at first.last+tag@mail-host.example.com ok",
		"a@b.co",
		"a@b.c", // TLD too short
		"x@@y.com",
		"a@b.com-xyz", // domain stops before the dash tail
		"a@b.c-d.ef",
		"weird..dots@sub..domain..org",
		"no at sign here",
		"a@b a2@c.com",
		"a@b.comx@d.com", // greedy TLD swallows up to the next @
		"ip 192.168.1.1 and 10.0.0.256 and 8.8.8.8",
		"1.2.3.007",
		"1111.2.3.4.5", // first run too long; later quad still matches
		"1.2222.3.4",
		"v1.2.3.4", // \b guard before first octet
		"1.2.3.4x", // \b guard after last octet
		"1.2x3.4.5.6",
		"255.255.255.255 0.0.0.0",
		"12.34.56.78.90", // five runs: leftmost quad wins, tail consumed
	}
	for _, c := range cases {
		checkEquivalence(t, c)
	}
}

func TestKernelCreditsTable(t *testing.T) {
	cases := []string{
		"Dropped by DoxerAlice and @doxerbob, thanks to Charlie99 (@charlie)",
		"dox by hunter_22",
		"CREDIT: someone.else",
		"Brought To You By the_crew and @ally",
		"  credit: padded_alias  ",
		"credit:nospace",        // \s+ requires whitespace after the lead
		"he was dropped by bob", // lead not at line start
		"dropped by a, b, c and d",
		"dropped by @only @handles",
		"dropped by trailing.dots...",
		"dropped by (@paren) solo_name",
		"dropped by x,(@a) thanks to y99z", // replacer spans the paren deletion
		"dropped by \nnextline_alias",      // \s+ crosses the newline
		"dropped by ab",                    // too short for validUsername
		"credit: dropped by nested_alias",  // second lead inside first capture
		"dropped by Dropped By echo_alias",
	}
	for _, c := range cases {
		checkEquivalence(t, c)
	}
}

// TestReservedPathDenylist pins the satellite bugfix: reserved paths are
// rejected in both kernels, so share links no longer mint account-set
// dedup identities that collide across unrelated documents.
func TestReservedPathDenylist(t *testing.T) {
	cases := map[string]netid.Network{
		"https://youtube.com/watch":        netid.YouTube,
		"https://twitter.com/intent":       netid.Twitter,
		"https://facebook.com/profile.php": netid.Facebook,
		"https://instagram.com/reels":      netid.Instagram,
		"twitch.tv/directory":              netid.Twitch,
		"plus.google.com/communities":      netid.GooglePlus,
	}
	keys := map[string]int{}
	for text, n := range cases {
		checkEquivalence(t, text)
		e := Extract(text)
		if u, ok := e.Accounts[n]; ok {
			t.Errorf("%q: reserved path captured as %v username %q", text, n, u)
		}
		keys[e.AccountSetKey()]++
	}
	// All denied documents share the empty identity, not a reserved-path
	// pseudo-account key.
	if len(keys) != 1 || keys[""] != len(cases) {
		t.Errorf("reserved-path docs minted dedup keys: %v", keys)
	}
	// Distinct real users must still yield distinct keys.
	a := Extract("youtube.com/user/alice_real")
	b := Extract("youtube.com/user/bob_real")
	if a.AccountSetKey() == b.AccountSetKey() || a.AccountSetKey() == "" {
		t.Errorf("real profiles lost their identities: %q vs %q", a.AccountSetKey(), b.AccountSetKey())
	}
}

// TestURLAllMatches pins the satellite bugfix: a benign share link earlier
// in the document no longer shadows the real profile URL.
func TestURLAllMatches(t *testing.T) {
	text := "share: https://twitter.com/intent\nprofile: https://twitter.com/real_target"
	checkEquivalence(t, text)
	e := Extract(text)
	if got := e.Accounts[netid.Twitter]; got != "real_target" {
		t.Fatalf("want real_target to survive the share link, got %q", got)
	}
	// Invalid shapes are skipped too, not just reserved paths.
	text2 := "facebook.com/.. then facebook.com/the.real.one"
	checkEquivalence(t, text2)
	if got := Extract(text2).Accounts[netid.Facebook]; got != "the.real.one" {
		t.Fatalf("want the.real.one after invalid capture, got %q", got)
	}
}

// TestSplitLabelDash pins the satellite bugfix: " - " separated labels
// resolve, while hyphenated labels and lookalikes stay inert.
func TestSplitLabelDash(t *testing.T) {
	e := Extract("Skype Name - john.doe88")
	if got := e.Accounts[netid.Skype]; got != "john.doe88" {
		t.Fatalf("dash-separated skype label: got %q", got)
	}
	e = Extract("Twitter - handle99")
	if got := e.Accounts[netid.Twitter]; got != "handle99" {
		t.Fatalf("dash-separated twitter label: got %q", got)
	}
	for _, text := range []string{"e-mail - someuser1", "twitter-handle99", "Twitter- handle99"} {
		if got := Extract(text); len(got.Accounts) != 0 {
			t.Fatalf("%q: hyphen lookalike extracted %v", text, got.Accounts)
		}
	}
}

// TestKernelFoldFallback covers the width-changing fold inputs that route
// the kernel through the reference path.
func TestKernelFoldFallback(t *testing.T) {
	cases := []string{
		"ſkype: user99",                // U+017F long s
		"facebook.com/bobſmith",        // long s inside a capture
		"YOUTUBE.COM/K-el-vin",         // plain ASCII K
		"youtube.com/\u212Aelvin_user", // U+212A Kelvin sign
		"\u212A age: 12",               // Kelvin before a word boundary
		"İRL NAME: Dotted",             // U+0130 folds to ASCII 'i'
		"F\u0130RST NAME: Upper",       // dotted İ inside a label
		"invalid \xff bytes \xfe here", // invalid UTF-8
		"Name\u017F: ghost",            // long s adjacent to a label
	}
	for _, c := range cases {
		checkEquivalence(t, c)
	}
}

// TestKernelZeroAlloc verifies the steady-state zero-allocation claim on
// a representative dox document shape with a reused Extraction.
func TestKernelZeroAlloc(t *testing.T) {
	doc := strings.Join([]string{
		"Dropped by DoxerAlice and @doxerbob, thanks to Charlie99 (@charlie)",
		"Name: John Smith",
		"Age: 24",
		"FB: john.smith88",
		"Twitter - jsmith_alt",
		"https://www.youtube.com/user/jsmithvlogs",
		"phone: (555) 123-4567",
		"email: john@example.com",
		"last ip: 192.168.1.77",
	}, "\n")
	k := NewKernel()
	var e Extraction
	k.ExtractInto(doc, &e, Options{}) // warm scratch and slice capacities
	allocs := testing.AllocsPerRun(200, func() {
		k.ExtractInto(doc, &e, Options{})
	})
	if allocs != 0 {
		t.Fatalf("steady-state ExtractInto allocated %v times per run", allocs)
	}
	if e.Accounts[netid.Facebook] != "john.smith88" || e.Age != 24 || len(e.Phones) != 1 {
		t.Fatalf("warm extraction lost fields: %+v", e)
	}
}
