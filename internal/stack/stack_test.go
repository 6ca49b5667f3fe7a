package stack

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"doxmeter/internal/core"
	"doxmeter/internal/faults"
	"doxmeter/internal/osn"
	"doxmeter/internal/simclock"
	"doxmeter/internal/telemetry"
	"doxmeter/internal/textgen"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestStackServesEveryPrefix(t *testing.T) {
	hub := telemetry.NewHub(0, nil)
	st := New(Config{Seed: 7, Scale: 0.004, Telemetry: hub})
	base, shutdown, err := st.ServeLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	// Content only exists once the virtual clock has moved into the study
	// period.
	if code, _ := get(t, base+"/admin/advance?days=30"); code != 200 {
		t.Fatalf("advance: status %d", code)
	}
	for _, path := range []string{
		"/pastebin/api_scraping.php?since=0&limit=10",
		"/4chan/b/catalog.json",
		"/8ch/pol/catalog.json",
		"/admin/clock",
		"/admin/faults",
	} {
		if code, _ := get(t, base+path); code != 200 {
			t.Errorf("GET %s: status %d", path, code)
		}
	}

	code, body := get(t, base+"/admin/accounts?limit=5")
	if code != 200 {
		t.Fatalf("accounts: status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) == 0 || len(lines) > 5 {
		t.Fatalf("accounts returned %d lines, want 1..5", len(lines))
	}
	network, user, ok := strings.Cut(lines[0], "/")
	if !ok || network == "" || user == "" {
		t.Fatalf("accounts line %q is not network/username", lines[0])
	}
	if code, _ := get(t, fmt.Sprintf("%s/osn/%s/%s", base, network, user)); code != 200 {
		t.Errorf("GET /osn/%s/%s: status %d", network, user, code)
	}

	// Every route above went through HTTPMetrics, so the hub's registry
	// must have counted them.
	if hub.Registry.Sum("doxmeter_http_requests_total") == 0 {
		t.Error("no http requests counted on the hub")
	}
}

func TestStackDeterministicAcrossBuilds(t *testing.T) {
	a := New(Config{Seed: 7, Scale: 0.004})
	b := New(Config{Seed: 7, Scale: 0.004})
	if a.Corpus().TotalDocs() != b.Corpus().TotalDocs() {
		t.Errorf("corpus size diverged: %d vs %d", a.Corpus().TotalDocs(), b.Corpus().TotalDocs())
	}
	aAcc, bAcc := a.Universe.Accounts(), b.Universe.Accounts()
	if len(aAcc) != len(bAcc) {
		t.Fatalf("account count diverged: %d vs %d", len(aAcc), len(bAcc))
	}
	for i := range aAcc {
		if aAcc[i].Ref != bAcc[i].Ref {
			t.Fatalf("account %d diverged: %v vs %v", i, aAcc[i].Ref, bAcc[i].Ref)
		}
	}
}

func TestStackFaultInjectorsCount(t *testing.T) {
	profile, err := faults.Preset("heavy", 99)
	if err != nil {
		t.Fatal(err)
	}
	st := New(Config{Seed: 7, Scale: 0.004, Faults: profile})
	base, shutdown, err := st.ServeLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get(t, base+"/admin/advance?days=30")
	for i := 0; i < 50; i++ {
		resp, err := http.Get(base + "/pastebin/api_scraping.php?since=0&limit=10")
		if err != nil {
			continue // injected resets/stalls surface as transport errors
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	c := st.Injectors["pastebin"].Counters()
	if c.Requests == 0 {
		t.Fatal("injector saw no requests")
	}
	if c.Injected() == 0 {
		t.Error("heavy profile injected nothing over 50 requests")
	}
}

// TestStackServesStudyWorld: the stack serves the world a study at the
// same seed and scale crawls. Every document matches, every account reacts
// to its dox on the same days, and a doxed account the study would see
// lock down answers locked over HTTP.
func TestStackServesStudyWorld(t *testing.T) {
	const seed, scale = 7, 0.01
	st := New(Config{Seed: seed, Scale: scale})
	study, err := core.NewStudy(core.StudyConfig{Seed: seed, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}

	docs, same := 0, 0
	for _, site := range textgen.AllSites() {
		got, want := st.Corpus().Streams[site], study.Corpus().Streams[site]
		if len(got) != len(want) {
			t.Errorf("%s: %d documents, study has %d", site, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			docs++
			if got[i].ID == want[i].ID && got[i].Posted.Equal(want[i].Posted) && got[i].Body == want[i].Body {
				same++
			}
		}
	}
	if same != docs {
		t.Errorf("%d of %d documents match the study's", same, docs)
	}

	var days []time.Time
	for _, p := range []simclock.Period{simclock.Period1, simclock.Period2} {
		for d := p.Start; !d.After(p.End); d = d.Add(simclock.Day) {
			days = append(days, d)
		}
	}
	got, want := st.Universe.Accounts(), study.Universe.Accounts()
	if len(got) != len(want) {
		t.Fatalf("%d accounts, study has %d", len(got), len(want))
	}
	victims, doxed, studyDoxed := 0, 0, 0
	var locked *osn.Account // doxed while public, later locked down
	var lockedAt time.Time
	for i, a := range got {
		b := want[i]
		if a.Ref != b.Ref {
			t.Fatalf("account %d is %v, study has %v", i, a.Ref, b.Ref)
		}
		if a.VictimID >= 0 {
			victims++
		}
		if !b.DoxedAt().IsZero() {
			studyDoxed++
		}
		if !a.DoxedAt().Equal(b.DoxedAt()) {
			t.Errorf("%v doxed at %v, study has %v", a.Ref, a.DoxedAt(), b.DoxedAt())
			continue
		}
		for _, d := range days {
			if a.StatusAt(d) != b.StatusAt(d) {
				t.Errorf("%v on %s is %v, study has %v", a.Ref, d.Format(time.DateOnly), a.StatusAt(d), b.StatusAt(d))
				break
			}
		}
		if a.DoxedAt().IsZero() {
			continue
		}
		doxed++
		if locked != nil || a.StatusAt(a.DoxedAt()) != osn.Public {
			continue
		}
		for _, d := range days {
			if d.After(a.DoxedAt()) && a.StatusAt(d) != osn.Public {
				locked, lockedAt = a, d
				break
			}
		}
	}
	if locked == nil {
		t.Fatalf("no doxed account locks down on a study day; %d of %d victim accounts doxed, %d in the study",
			doxed, victims, studyDoxed)
	}

	base, shutdown, err := st.ServeLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	advance := int(lockedAt.Sub(st.Clock.Now()) / simclock.Day)
	if code, _ := get(t, fmt.Sprintf("%s/admin/advance?days=%d", base, advance)); code != 200 {
		t.Fatalf("advance: status %d", code)
	}
	code, body := get(t, fmt.Sprintf("%s/osn/%s/%s", base, locked.Ref.Network.Slug(), locked.Ref.Username))
	if code != http.StatusNotFound && !(code == 200 && strings.Contains(body, "This account is private.")) {
		t.Errorf("%v on %s, after its lockdown: status %d, body %q", locked.Ref, lockedAt.Format(time.DateOnly), code, body)
	}
}
