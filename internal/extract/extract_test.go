package extract

import (
	"math/rand"
	"strings"
	"testing"

	"doxmeter/internal/netid"
	"doxmeter/internal/sim"
	"doxmeter/internal/textgen"
)

func TestURLForms(t *testing.T) {
	text := `Accounts:
  Facebook: https://facebook.com/john.smith42
  Twitter: https://twitter.com/jsmith
  Instagram: https://www.instagram.com/jsmith_ig
  YouTube: https://youtube.com/user/jsmithtube
  Twitch: https://twitch.tv/jsmithtv
  Google+: https://plus.google.com/+JohnSmith`
	e := Extract(text)
	want := map[netid.Network]string{
		netid.Facebook:   "john.smith42",
		netid.Twitter:    "jsmith",
		netid.Instagram:  "jsmith_ig",
		netid.YouTube:    "jsmithtube",
		netid.Twitch:     "jsmithtv",
		netid.GooglePlus: "JohnSmith",
	}
	for n, u := range want {
		if got := e.Accounts[n]; got != u {
			t.Errorf("%v = %q, want %q", n, got, u)
		}
	}
}

func TestLabeledLineForms(t *testing.T) {
	// The paper's example form (2): "FB example".
	e := Extract("FB johndoe99\nIG johnd\nSkype: john.doe.skype\ntw; jd_tweets")
	if e.Accounts[netid.Facebook] != "johndoe99" {
		t.Errorf("FB = %q", e.Accounts[netid.Facebook])
	}
	if e.Accounts[netid.Instagram] != "johnd" {
		t.Errorf("IG = %q", e.Accounts[netid.Instagram])
	}
	if e.Accounts[netid.Skype] != "john.doe.skype" {
		t.Errorf("Skype = %q", e.Accounts[netid.Skype])
	}
	if e.Accounts[netid.Twitter] != "jd_tweets" {
		t.Errorf("TW = %q", e.Accounts[netid.Twitter])
	}
}

func TestAmbiguousPluralFormsAbstain(t *testing.T) {
	// The paper's example forms (3) and (4): multi-account lists. The
	// extractor must abstain rather than guess.
	e := Extract("fbs: alice1 - alice2 - alice3\nfacebooks; bob1 and bob2")
	if u, ok := e.Accounts[netid.Facebook]; ok {
		t.Errorf("plural form extracted %q; should abstain", u)
	}
}

func TestMultiCandidateSingleLabelAbstains(t *testing.T) {
	e := Extract("Facebook: olduser newuser2")
	if u, ok := e.Accounts[netid.Facebook]; ok {
		t.Errorf("two-candidate line extracted %q; should abstain", u)
	}
}

func TestConnectiveTokensFiltered(t *testing.T) {
	e := Extract("Facebook: and realuser77")
	if e.Accounts[netid.Facebook] != "realuser77" {
		t.Errorf("connective not filtered: %q", e.Accounts[netid.Facebook])
	}
}

func TestNameExtraction(t *testing.T) {
	e := Extract("Name: John Smith\nAge: 21")
	if e.FirstName != "John" || e.LastName != "Smith" {
		t.Errorf("name = %q %q", e.FirstName, e.LastName)
	}
	if e.Age != 21 {
		t.Errorf("age = %d", e.Age)
	}
	// Truncated last name: first extracted, last not.
	e = Extract("Name: Jane D.")
	if e.FirstName != "Jane" {
		t.Errorf("first = %q", e.FirstName)
	}
	if e.LastName != "" {
		t.Errorf("truncated last name extracted as %q", e.LastName)
	}
	// First-name-only form.
	e = Extract("First name: Bob")
	if e.FirstName != "Bob" {
		t.Errorf("first-only = %q", e.FirstName)
	}
	// Prose-embedded names are not attempted.
	e = Extract("goes by Tim Brown irl, ask around")
	if e.FirstName != "" || e.LastName != "" {
		t.Errorf("prose name extracted: %q %q", e.FirstName, e.LastName)
	}
}

func TestAgeVariants(t *testing.T) {
	for _, in := range []string{"Age: 17", "age; 17", "Age - 17", "AGE: 17"} {
		if e := Extract(in); e.Age != 17 {
			t.Errorf("Extract(%q).Age = %d", in, e.Age)
		}
	}
	if e := Extract("the kid is seventeen years old"); e.Age != 0 {
		t.Errorf("prose age extracted: %d", e.Age)
	}
	if e := Extract("Age: 200"); e.Age != 0 {
		t.Errorf("absurd age accepted: %d", e.Age)
	}
}

func TestPhoneVariants(t *testing.T) {
	hits := []string{
		"Phone: (312) 555-0142",
		"Cell: 312-555-0142",
		"phone; +13125550142",
		"Phone Number: 312.555.0142",
	}
	for _, in := range hits {
		if e := Extract(in); len(e.Phones) != 1 {
			t.Errorf("Extract(%q).Phones = %v", in, e.Phones)
		}
	}
	misses := []string{
		"number is 3 1 2 5 5 5 0 1 4 2 hit him up",
		"text him, starts with 312 ends 42",
	}
	for _, in := range misses {
		if e := Extract(in); len(e.Phones) != 0 {
			t.Errorf("Extract(%q).Phones = %v, want none", in, e.Phones)
		}
	}
}

func TestEmailAndIP(t *testing.T) {
	e := Extract("Email: a.b12@gmail.com\nIP: 74.21.5.9\nalso 300.1.2.3 is not an ip")
	if len(e.Emails) != 1 || e.Emails[0] != "a.b12@gmail.com" {
		t.Errorf("emails = %v", e.Emails)
	}
	if len(e.IPs) != 1 || e.IPs[0] != "74.21.5.9" {
		t.Errorf("ips = %v", e.IPs)
	}
}

func TestCredits(t *testing.T) {
	e := Extract("Dropped by DoxerAlice and @doxerbob, thanks to Charlie (@doxercharlie)")
	wantAliases := map[string]bool{"DoxerAlice": true, "Charlie": true}
	for _, a := range e.CreditAliases {
		if !wantAliases[a] {
			t.Errorf("unexpected alias %q", a)
		}
		delete(wantAliases, a)
	}
	if len(wantAliases) != 0 {
		t.Errorf("missing aliases: %v (got %v)", wantAliases, e.CreditAliases)
	}
	handles := map[string]bool{}
	for _, h := range e.CreditHandles {
		handles[h] = true
	}
	if !handles["doxerbob"] || !handles["doxercharlie"] {
		t.Errorf("handles = %v", e.CreditHandles)
	}
}

func TestCreditLeadVariants(t *testing.T) {
	for _, in := range []string{
		"Dox by shadowwolf12",
		"Credit: shadowwolf12",
		"Brought to you by shadowwolf12",
	} {
		e := Extract(in)
		if len(e.CreditAliases) != 1 || e.CreditAliases[0] != "shadowwolf12" {
			t.Errorf("Extract(%q) credits = %v", in, e.CreditAliases)
		}
	}
}

func TestAccountSetKey(t *testing.T) {
	a := Extract("FB userone\nIG usertwo")
	b := Extract("IG usertwo\nFB userone")
	if a.AccountSetKey() == "" {
		t.Fatal("empty key for non-empty account set")
	}
	if a.AccountSetKey() != b.AccountSetKey() {
		t.Error("account set key depends on order")
	}
	if Extract("nothing here").AccountSetKey() != "" {
		t.Error("no-account doc should have empty key")
	}
	refs := a.AccountRefs()
	if len(refs) != 2 {
		t.Fatalf("refs = %v", refs)
	}
}

func TestAgainstGeneratorGroundTruth(t *testing.T) {
	// End-to-end against the corpus generator: easy-rendered accounts and
	// fields must be recovered; overall per-network accuracy must sit in
	// the Table 2 band.
	w := sim.NewWorld(sim.Default(5, 0.01))
	g := textgen.New(w)
	r := rand.New(rand.NewSource(11))
	type acc struct{ hit, total int }
	perNet := map[netid.Network]*acc{}
	for _, n := range netid.All() {
		perNet[n] = &acc{}
	}
	nameAcc, ageAcc, phoneAcc := &acc{}, &acc{}, &acc{}
	for i := 0; i < 3; i++ {
		for _, v := range w.TrainVictims {
			d := g.Dox(r, v)
			e := Extract(d.Body)
			for n, u := range v.OSN {
				perNet[n].total++
				if e.Accounts[n] == u {
					perNet[n].hit++
				} else if d.EasyRendered[n] {
					t.Fatalf("easy-rendered %v account %q not extracted (got %q)\nbody:\n%s",
						n, u, e.Accounts[n], d.Body)
				}
			}
			nameAcc.total++
			if e.FirstName == v.FirstName {
				nameAcc.hit++
			} else if d.FirstNameEasy {
				t.Fatalf("easy first name %q not extracted (got %q)\nbody:\n%s", v.FirstName, e.FirstName, d.Body)
			}
			ageAcc.total++
			if e.Age == v.Age {
				ageAcc.hit++
			} else if d.AgeEasy {
				t.Fatalf("easy age %d not extracted (got %d)\nbody:\n%s", v.Age, e.Age, d.Body)
			}
			if v.Fields.Phone {
				phoneAcc.total++
				found := false
				for _, p := range e.Phones {
					if p == v.Phone {
						found = true
					}
				}
				if found {
					phoneAcc.hit++
				} else if d.PhoneEasy {
					t.Fatalf("easy phone %q not extracted (got %v)\nbody:\n%s", v.Phone, e.Phones, d.Body)
				}
			}
		}
	}
	rate := func(a *acc) float64 { return float64(a.hit) / float64(a.total) }
	checks := []struct {
		name string
		a    *acc
		want float64
	}{
		{"instagram", perNet[netid.Instagram], 0.952},
		{"facebook", perNet[netid.Facebook], 0.848},
		{"youtube", perNet[netid.YouTube], 0.80},
		{"skype", perNet[netid.Skype], 0.832},
		{"first name", nameAcc, 0.776},
		{"age", ageAcc, 0.816},
		{"phone", phoneAcc, 0.584},
	}
	for _, c := range checks {
		if c.a.total == 0 {
			t.Fatalf("%s: no samples", c.name)
		}
		got := rate(c.a)
		if got < c.want-0.06 || got > c.want+0.06 {
			t.Errorf("%s extraction accuracy %.3f (n=%d), want ~%.3f (Table 2)", c.name, got, c.a.total, c.want)
		}
	}
}

func TestExtractionOnBenignDocs(t *testing.T) {
	// Benign pastes must not produce account extractions at meaningful
	// rates (they feed dedup identity for false positives only).
	w := sim.NewWorld(sim.Default(6, 0.01))
	g := textgen.New(w)
	r := rand.New(rand.NewSource(12))
	withAccounts := 0
	n := 400
	for i := 0; i < n; i++ {
		_, body := g.BenignPaste(r)
		if strings.Contains(body, "doxed") {
			continue // a wild joke dox, legitimately account-bearing
		}
		if len(Extract(body).Accounts) > 0 {
			withAccounts++
		}
	}
	if float64(withAccounts)/float64(n) > 0.08 {
		t.Errorf("%d/%d benign docs yielded accounts", withAccounts, n)
	}
}

// TestPrefilterCaseFoldSoundness: the substring gates run on a case-folded
// copy of the text, and must stay sound for the only two Unicode runes
// whose simple case-fold orbit lands on an ASCII letter — U+017F LONG S
// (folds with 's') and U+212A KELVIN SIGN (folds with 'k'). A (?i) regex
// matches those spellings, so the gate must not filter them out.
func TestPrefilterCaseFoldSoundness(t *testing.T) {
	cases := []struct {
		text    string
		network netid.Network
		user    string
	}{
		{"check FACEBOOK.COM/bob.smith out", netid.Facebook, "bob.smith"},
		{"facebooK.com/bob.smith", netid.Facebook, "bob.smith"},     // KELVIN SIGN for k
		{"inſtagram.com/alice_pics", netid.Instagram, "alice_pics"}, // LONG S for s
		{"pluſ.google.com/+carolq", netid.GooglePlus, "carolq"},
	}
	for _, c := range cases {
		e := Extract(c.text)
		if got := e.Accounts[c.network]; got != c.user {
			t.Errorf("Extract(%q): %v = %q, want %q", c.text, c.network, got, c.user)
		}
	}
}

// TestPrefilterGatesDoNotDropFields: gated field regexes still fire in
// mixed-case and fold-oddball spellings.
func TestPrefilterGatesDoNotDropFields(t *testing.T) {
	e := Extract("NAME: John Smith\nAGE: 24\nDROPPED BY ghostdoxer")
	if e.FirstName != "John" || e.LastName != "Smith" {
		t.Errorf("uppercase labels: name = %q %q", e.FirstName, e.LastName)
	}
	if e.Age != 24 {
		t.Errorf("uppercase labels: age = %d", e.Age)
	}
	if len(e.CreditAliases) != 1 || e.CreditAliases[0] != "ghostdoxer" {
		t.Errorf("uppercase credit line: aliases = %v", e.CreditAliases)
	}
}

// TestPrefilterNegativeDocs: documents with none of the hint substrings
// must extract nothing through the gated paths (and not panic).
func TestPrefilterNegativeDocs(t *testing.T) {
	e := Extract("just some benign chatter about the weather and lunch plans")
	if len(e.Accounts) != 0 || e.FirstName != "" || e.Age != 0 ||
		len(e.Emails) != 0 || len(e.CreditAliases) != 0 {
		t.Errorf("benign doc extracted %+v", e)
	}
}
