package osn

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"doxmeter/internal/netid"
	"doxmeter/internal/sim"
	"doxmeter/internal/simclock"
)

func testUniverse(t *testing.T, scale float64) (*Universe, *sim.World, *simclock.Clock) {
	t.Helper()
	w := sim.NewWorld(sim.Default(71, scale))
	clock := simclock.NewClock(simclock.Period1.Start)
	return NewUniverse(clock, w, 71), w, clock
}

func TestUniverseRegistersVictimAccounts(t *testing.T) {
	u, w, _ := testUniverse(t, 0.05)
	want := 0
	for _, v := range w.Victims {
		want += len(v.OSN)
	}
	if got := len(u.Accounts()); got != want {
		t.Fatalf("registered %d accounts, want %d", got, want)
	}
	for _, v := range w.Victims {
		for n, user := range v.OSN {
			a, ok := u.Lookup(netid.Ref{Network: n, Username: user})
			if !ok {
				t.Fatalf("account %v/%s not registered", n, user)
			}
			if a.VictimID != v.ID {
				t.Fatalf("account owner %d, want %d", a.VictimID, v.ID)
			}
		}
	}
}

func TestEraBoundaries(t *testing.T) {
	if EraAt(netid.Facebook, simclock.Period1.Start) != PreFilter {
		t.Error("FB period 1 should be pre-filter")
	}
	if EraAt(netid.Facebook, simclock.Period2.Start) != PostFilter {
		t.Error("FB period 2 should be post-filter")
	}
	if EraAt(netid.Instagram, simclock.Period2.Start) != PostFilter {
		t.Error("IG period 2 should be post-filter")
	}
	// Twitter never deploys (behaviour unchanged across eras, §6.3.3).
	if EraAt(netid.Twitter, simclock.Period2.End) != PreFilter {
		t.Error("Twitter should never flip eras")
	}
	if PreFilter.String() != "pre-filter" || PostFilter.String() != "post-filter" {
		t.Error("era strings wrong")
	}
}

func TestRecordDoxReactionRates(t *testing.T) {
	u, w, _ := testUniverse(t, 0.5)
	// Dox every Facebook account in period 1 and measure end-state
	// changes over a ~6-week window, like Table 10's pre-filter row.
	doxAt := simclock.Period1.Start.Add(2 * simclock.Day)
	endAt := simclock.Period1.End
	var total, morePrivate, morePublic, any int
	for _, v := range w.Victims {
		user, ok := v.OSN[netid.Facebook]
		if !ok {
			continue
		}
		ref := netid.Ref{Network: netid.Facebook, Username: user}
		u.RecordDox(ref, doxAt)
		a, _ := u.Lookup(ref)
		start := a.StatusAt(doxAt)
		if start == Inactive {
			continue // verifier would drop these
		}
		total++
		end := a.StatusAt(endAt)
		if end > start {
			morePrivate++
		}
		if end < start {
			morePublic++
		}
		if len(a.transitions) > 0 && a.transitions[0].at.Before(endAt) {
			any++
		}
	}
	if total < 300 {
		t.Fatalf("only %d Facebook accounts; scale too small for calibration check", total)
	}
	mp := float64(morePrivate) / float64(total)
	if math.Abs(mp-0.22) > 0.05 {
		t.Errorf("FB pre-filter more-private rate %.3f, want ~0.22 (Table 10)", mp)
	}
	mu := float64(morePublic) / float64(total)
	if mu <= 0 || mu > 0.07 {
		t.Errorf("FB pre-filter more-public rate %.3f, want ~0.02", mu)
	}
	if any < morePrivate {
		t.Error("any-change must be at least more-private")
	}
}

func TestPostFilterReactionsLower(t *testing.T) {
	u, w, _ := testUniverse(t, 0.5)
	pre := simclock.Period1.Start.Add(simclock.Day)
	post := simclock.Period2.Start.Add(simclock.Day)
	rate := func(doxAt time.Time, window time.Duration) float64 {
		// Fresh universe per measurement so RecordDox first-wins doesn't
		// interfere.
		u2 := NewUniverse(simclock.NewClock(simclock.Period1.Start), w, 99)
		var total, changed int
		for _, v := range w.Victims {
			user, ok := v.OSN[netid.Instagram]
			if !ok {
				continue
			}
			ref := netid.Ref{Network: netid.Instagram, Username: user}
			u2.RecordDox(ref, doxAt)
			a, _ := u2.Lookup(ref)
			if a.StatusAt(doxAt) == Inactive {
				continue
			}
			total++
			for _, tr := range a.transitions {
				if tr.at.After(doxAt) && tr.at.Before(doxAt.Add(window)) {
					changed++
					break
				}
			}
		}
		return float64(changed) / float64(total)
	}
	window := 40 * simclock.Day
	preRate, postRate := rate(pre, window), rate(post, window)
	if preRate <= 2*postRate {
		t.Errorf("IG pre-filter change rate %.3f should be >2x post-filter %.3f (Table 10)", preRate, postRate)
	}
	_ = u
}

func TestReactionTiming(t *testing.T) {
	u, w, _ := testUniverse(t, 0.5)
	doxAt := simclock.Period1.Start
	var within1, within7, total int
	for _, v := range w.Victims {
		for _, n := range []netid.Network{netid.Facebook, netid.Instagram, netid.Twitter} {
			user, ok := v.OSN[n]
			if !ok {
				continue
			}
			ref := netid.Ref{Network: n, Username: user}
			u.RecordDox(ref, doxAt)
			a, _ := u.Lookup(ref)
			for _, tr := range a.transitions {
				if tr.to == Private || tr.to == Inactive {
					total++
					d := tr.at.Sub(doxAt)
					if d < 24*time.Hour { // day-0 draws land within the first day
						within1++
					}
					if d < 8*simclock.Day {
						within7++
					}
					break
				}
			}
		}
	}
	if total < 50 {
		t.Fatalf("only %d lockdowns observed", total)
	}
	f1 := float64(within1) / float64(total)
	f7 := float64(within7) / float64(total)
	if math.Abs(f1-0.36) > 0.12 {
		t.Errorf("within-24h fraction %.3f, want ~0.358 (§6.3)", f1)
	}
	if f7 < 0.82 {
		t.Errorf("within-7d fraction %.3f, want ~0.906 (§6.3)", f7)
	}
}

func TestRepeatDoxIgnored(t *testing.T) {
	u, w, _ := testUniverse(t, 0.05)
	var ref netid.Ref
	for _, v := range w.Victims {
		if user, ok := v.OSN[netid.Facebook]; ok {
			ref = netid.Ref{Network: netid.Facebook, Username: user}
			break
		}
	}
	t1 := simclock.Period1.Start.Add(simclock.Day)
	u.RecordDox(ref, t1)
	a, _ := u.Lookup(ref)
	trans1 := len(a.transitions)
	first := a.DoxedAt()
	u.RecordDox(ref, t1.Add(10*simclock.Day))
	if len(a.transitions) != trans1 || !a.DoxedAt().Equal(first) {
		t.Error("repeat dox re-drew the reaction")
	}
	// Unknown refs are silently ignored.
	u.RecordDox(netid.Ref{Network: netid.Facebook, Username: "ghost-user"}, t1)
}

func TestControlAccountsDeterministic(t *testing.T) {
	u, _, _ := testUniverse(t, 0.02)
	a1, ok1 := u.ControlAccount(123456)
	a2, ok2 := u.ControlAccount(123456)
	if !ok1 || !ok2 {
		t.Fatal("control lookup failed")
	}
	if a1.initial != a2.initial || len(a1.transitions) != len(a2.transitions) {
		t.Fatal("control account not deterministic")
	}
	if _, ok := u.ControlAccount(0); ok {
		t.Error("ID 0 should not resolve")
	}
	if _, ok := u.ControlAccount(u.MaxInstagramID() + 1); ok {
		t.Error("ID beyond space should not resolve")
	}
}

// TestControlAccountConcurrent: goroutines resolving overlapping control
// IDs (victim IDs among them) through one universe all get one shared
// account per ID, equal to what a fresh universe derives: status on every
// study day, activity and transitions.
func TestControlAccountConcurrent(t *testing.T) {
	u, _, _ := testUniverse(t, 0.02)
	fresh, _, _ := testUniverse(t, 0.02)
	var ids []int64
	for _, a := range u.Accounts() {
		if a.NumericID > 0 && len(ids) < 5 {
			ids = append(ids, a.NumericID)
		}
	}
	for i := 0; i < 400; i++ {
		ids = append(ids, int64(1+i*1_000_003))
	}
	const workers = 4
	got := make([][]*Account, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*Account, len(ids))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts a quarter further in, so every ID is
			// resolved by several goroutines at about the same time.
			for k := range ids {
				i := (k + w*len(ids)/workers) % len(ids)
				got[w][i], _ = u.ControlAccount(ids[i])
			}
		}(w)
	}
	wg.Wait()
	for i, id := range ids {
		want, ok := fresh.ControlAccount(id)
		if !ok {
			t.Fatalf("ID %d does not resolve in a fresh universe", id)
		}
		for w := range got {
			a := got[w][i]
			if a != got[0][i] {
				t.Fatalf("ID %d: workers 0 and %d got different accounts", id, w)
			}
			if a.Ref != want.Ref || a.NumericID != want.NumericID || a.VictimID != want.VictimID ||
				a.Activity != want.Activity || a.initial != want.initial ||
				!reflect.DeepEqual(a.transitions, want.transitions) {
				t.Fatalf("ID %d: account %+v, a fresh universe derives %+v", id, a, want)
			}
			for _, p := range []simclock.Period{simclock.Period1, simclock.Period2} {
				for d := 0; d < p.Days(); d++ {
					if at := p.DayStart(d); a.StatusAt(at) != want.StatusAt(at) {
						t.Fatalf("ID %d on %v: status %v, want %v", id, at, a.StatusAt(at), want.StatusAt(at))
					}
				}
			}
		}
	}
}

func TestControlChurnRate(t *testing.T) {
	u, _, _ := testUniverse(t, 0.02)
	n := 20000
	changed := 0
	for i := 0; i < n; i++ {
		a, ok := u.ControlAccount(int64(1000 + i*17))
		if !ok {
			t.Fatal("lookup failed")
		}
		if a.StatusAt(simclock.Period2.End) != a.StatusAt(simclock.Period1.Start) {
			changed++
		}
	}
	rate := float64(changed) / float64(n)
	if rate > 0.006 || rate == 0 {
		t.Errorf("control churn %.4f, want ~0.002 (Table 10 Default)", rate)
	}
}

func TestCommentersNeverCrossAccounts(t *testing.T) {
	u, _, _ := testUniverse(t, 0.2)
	seen := map[string]string{} // author -> account key
	for _, a := range u.Accounts() {
		for _, c := range a.CommentsAt(simclock.Period2.End) {
			if prev, ok := seen[c.Author]; ok && prev != a.Ref.Key() {
				t.Fatalf("commenter %s appears on %s and %s", c.Author, prev, a.Ref.Key())
			}
			seen[c.Author] = a.Ref.Key()
		}
	}
	if len(seen) == 0 {
		t.Fatal("no comments generated")
	}
}

func TestAbuseCommentsEraSensitive(t *testing.T) {
	u, w, _ := testUniverse(t, 0.3)
	preTotal, postTotal := 0, 0
	preN, postN := 0, 0
	for _, v := range w.Victims {
		user, ok := v.OSN[netid.Instagram]
		if !ok {
			continue
		}
		ref := netid.Ref{Network: netid.Instagram, Username: user}
		a, _ := u.Lookup(ref)
		if preN <= postN {
			u.TriggerAbuse(ref, simclock.Period1.Start.Add(simclock.Day))
			preN++
			for _, c := range a.CommentsAt(simclock.Period2.End) {
				if c.Abusive {
					preTotal++
				}
			}
		} else {
			u.TriggerAbuse(ref, simclock.Period2.Start.Add(simclock.Day))
			postN++
			for _, c := range a.CommentsAt(simclock.Period2.End) {
				if c.Abusive {
					postTotal++
				}
			}
		}
	}
	if preN < 20 || postN < 20 {
		t.Skip("not enough Instagram accounts at this scale")
	}
	preMean := float64(preTotal) / float64(preN)
	postMean := float64(postTotal) / float64(postN)
	if preMean <= postMean {
		t.Errorf("abusive comments pre-filter %.2f should exceed post-filter %.2f", preMean, postMean)
	}
}

func TestCompromisedAccountsDefaced(t *testing.T) {
	u, w, clock := testUniverse(t, 0.5)
	doxAt := simclock.Period1.Start.Add(simclock.Day)
	var compromised *Account
	for _, v := range w.Victims {
		user, ok := v.OSN[netid.Instagram]
		if !ok {
			continue
		}
		ref := netid.Ref{Network: netid.Instagram, Username: user}
		u.RecordDox(ref, doxAt)
		a, _ := u.Lookup(ref)
		if !a.CompromisedAt().IsZero() {
			compromised = a
			break
		}
	}
	if compromised == nil {
		t.Skip("no compromise drawn at this seed/scale")
	}
	// Compromise implies the account opened up at that time.
	if compromised.StatusAt(compromised.CompromisedAt()) != Public {
		t.Error("compromised account not public at takeover time")
	}
	// The profile page carries the defacement banner after takeover.
	srv := httptest.NewServer(u.Handler())
	defer srv.Close()
	clock.Set(compromised.CompromisedAt().Add(simclock.Day))
	resp, err := http.Get(srv.URL + "/instagram/" + compromised.Ref.Username)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "OWNED") {
		t.Errorf("defacement banner missing from compromised profile")
	}
}

func TestHTTPProfilePages(t *testing.T) {
	u, w, clock := testUniverse(t, 0.05)
	srv := httptest.NewServer(u.Handler())
	defer srv.Close()
	clock.Set(simclock.Period1.Start.Add(simclock.Day))

	var pub *Account
	for _, a := range u.Accounts() {
		if a.StatusAt(clock.Now()) == Public {
			pub = a
			break
		}
	}
	if pub == nil {
		t.Fatal("no public account")
	}
	resp, err := http.Get(srv.URL + "/" + pub.Ref.Network.Slug() + "/" + pub.Ref.Username)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("public profile status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), pub.Ref.Username) {
		t.Error("profile missing username")
	}
	if strings.Contains(string(body), markerPrivate) {
		t.Error("public profile carries privacy marker")
	}

	// Unknown account: 404.
	resp, _ = http.Get(srv.URL + "/facebook/no-such-user-xyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown account status %d", resp.StatusCode)
	}
	// Unknown network: 404.
	resp, _ = http.Get(srv.URL + "/myspace/whoever")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown network status %d", resp.StatusCode)
	}
	// Numeric Instagram lookup.
	resp, _ = http.Get(srv.URL + "/instagram/id/55555")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		t.Errorf("control lookup status %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/instagram/id/notanumber")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d", resp.StatusCode)
	}
	_ = w
}

func TestPrivateProfileMarker(t *testing.T) {
	u, _, clock := testUniverse(t, 0.1)
	srv := httptest.NewServer(u.Handler())
	defer srv.Close()
	clock.Set(simclock.Period1.Start)
	for _, a := range u.Accounts() {
		switch a.StatusAt(clock.Now()) {
		case Private:
			resp, err := http.Get(srv.URL + "/" + a.Ref.Network.Slug() + "/" + a.Ref.Username)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), markerPrivate) {
				t.Fatalf("private profile wrong: status=%d", resp.StatusCode)
			}
			return
		case Inactive:
			resp, _ := http.Get(srv.URL + "/" + a.Ref.Network.Slug() + "/" + a.Ref.Username)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("inactive profile status %d, want 404", resp.StatusCode)
			}
		}
	}
	t.Skip("no private account at this scale/seed")
}

func TestStatusOrdering(t *testing.T) {
	if !(Public < Private && Private < Inactive) {
		t.Fatal("status ordering must be public < private < inactive for more/less-open comparisons")
	}
	if Public.String() != "public" || Private.String() != "private" || Inactive.String() != "inactive" {
		t.Error("status strings wrong")
	}
}
