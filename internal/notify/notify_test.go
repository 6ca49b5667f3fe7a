package notify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"doxmeter/internal/extract"
	"doxmeter/internal/leakcheck"
	"doxmeter/internal/netid"
	"doxmeter/internal/telemetry"
)

func exFromText(text string) *extract.Extraction { return extract.Extract(text) }

func TestSubscribeAndIngest(t *testing.T) {
	s := NewService("test-salt")
	s.SubscribeAccount("alice", netid.Ref{Network: netid.Twitter, Username: "alicetw"})
	s.Subscribe("alice", KindEmail, "Alice@Example.com")
	s.Subscribe("bob", KindPhone, "(312) 555-0142")

	ex := exFromText("Twitter: alicetw\nEmail: alice@example.com\nPhone: 312-555-0142")
	n := s.Ingest("pastebin", time.Now(), ex)
	if n != 3 {
		t.Fatalf("notifications = %d, want 3 (account+email hit alice, phone hit bob)", n)
	}
	alice := s.Drain("alice")
	if len(alice) != 2 {
		t.Fatalf("alice queue = %d", len(alice))
	}
	bob := s.Drain("bob")
	if len(bob) != 1 || bob[0].Kind != KindPhone {
		t.Fatalf("bob queue = %v", bob)
	}
	// Drain empties.
	if s.Pending("alice") != 0 || len(s.Drain("alice")) != 0 {
		t.Error("drain did not clear the queue")
	}
}

func TestNormalization(t *testing.T) {
	s := NewService("x")
	s.Subscribe("u", KindEmail, "USER@MAIL.COM")
	s.Subscribe("u", KindPhone, "+1 (312) 555-0142")
	ex := exFromText("Email: user@mail.com\nPhone: 312.555.0142")
	if n := s.Ingest("site", time.Now(), ex); n != 2 {
		t.Fatalf("normalized identifiers missed: %d hits", n)
	}
}

func TestNoFalseNotifications(t *testing.T) {
	s := NewService("x")
	s.Subscribe("u", KindEmail, "someone@else.com")
	ex := exFromText("Email: victim@mail.com\nTwitter: randomuser")
	if n := s.Ingest("site", time.Now(), ex); n != 0 {
		t.Fatalf("unrelated dox produced %d notifications", n)
	}
}

func TestUnsubscribe(t *testing.T) {
	s := NewService("x")
	s.Subscribe("u", KindEmail, "a@b.com")
	s.Unsubscribe("u", KindEmail, "a@b.com")
	if n := s.Ingest("site", time.Now(), exFromText("Email: a@b.com")); n != 0 {
		t.Fatalf("unsubscribed identifier still notified: %d", n)
	}
}

func TestSaltSeparatesRegistries(t *testing.T) {
	a, b := NewService("salt-a"), NewService("salt-b")
	if a.digest(KindEmail, "x@y.com") == b.digest(KindEmail, "x@y.com") {
		t.Error("different salts produced identical digests")
	}
}

func TestNoPlaintextStored(t *testing.T) {
	s := NewService("x")
	s.Subscribe("u", KindEmail, "secret-address@mail.com")
	for d := range s.subscribers {
		if bytes.Contains([]byte(d), []byte("secret")) {
			t.Fatal("registry stores plaintext identifiers")
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	s := NewService("x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Subscribe("sub", KindEmail, "a@b.com")
				s.Ingest("site", time.Now(), exFromText("Email: a@b.com"))
				s.Drain("sub")
			}
		}(i)
	}
	wg.Wait()
}

// TestHTTPAPI drives every route once. Not parallel: the leak check
// counts goroutines process-wide.
func TestHTTPAPI(t *testing.T) {
	settle := leakcheck.Mark(t)
	s := NewService("x")
	srv := httptest.NewServer(s.Handler())
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	defer func() {
		srv.Close()
		tr.CloseIdleConnections()
		settle()
	}()

	post := func(path, body string) int {
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/subscribe", `{"subscriber":"s1","kind":"email","value":"a@b.com"}`); code != http.StatusNoContent {
		t.Fatalf("subscribe = %d", code)
	}
	if code := post("/subscribe", `{"subscriber":"s1","kind":"bogus","value":"x"}`); code != http.StatusBadRequest {
		t.Fatalf("bogus kind = %d", code)
	}
	if code := post("/subscribe", `not json`); code != http.StatusBadRequest {
		t.Fatalf("bad json = %d", code)
	}
	if code := post("/subscribe", `{"subscriber":"","kind":"email","value":"x"}`); code != http.StatusBadRequest {
		t.Fatalf("missing subscriber = %d", code)
	}

	s.Ingest("pastebin", time.Now(), exFromText("Email: a@b.com"))
	resp, err := client.Get(srv.URL + "/notifications?subscriber=s1")
	if err != nil {
		t.Fatal(err)
	}
	var notes []Notification
	if err := json.NewDecoder(resp.Body).Decode(&notes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(notes) != 1 || notes[0].Site != "pastebin" {
		t.Fatalf("notes = %v", notes)
	}
	// GET without subscriber: 400.
	resp, _ = client.Get(srv.URL + "/notifications")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing subscriber query = %d", resp.StatusCode)
	}
	// Stats endpoint.
	resp, _ = client.Get(srv.URL + "/stats")
	var stats map[string]int
	_ = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats["ingested"] != 1 || stats["notified"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
	// Method check.
	resp, _ = client.Get(srv.URL + "/subscribe")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET subscribe = %d", resp.StatusCode)
	}
}

func TestPendingCapDropOldest(t *testing.T) {
	s := NewService("x")
	s.SetPendingCap(3)
	s.Subscribe("u", KindEmail, "user@mail.com")
	ex := exFromText("Email: user@mail.com")
	for i := 0; i < 5; i++ {
		s.Ingest("site", time.Unix(int64(i), 0).UTC(), ex)
	}
	if got := s.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	notes := s.Drain("u")
	if len(notes) != 3 {
		t.Fatalf("pending = %d, want 3", len(notes))
	}
	// Oldest two were evicted: the survivors are ingests 2, 3, 4.
	for i, n := range notes {
		if want := time.Unix(int64(i+2), 0).UTC(); !n.SeenAt.Equal(want) {
			t.Fatalf("note %d seen at %v, want %v", i, n.SeenAt, want)
		}
	}
	// Past twice the cap the queue compacts. It must still hold exactly
	// what shifting the oldest entries out would leave, also after
	// SetPendingCap lowers the cap mid-stream.
	s3 := NewService("x")
	s3.SetPendingCap(4)
	s3.Subscribe("u", KindEmail, "user@mail.com")
	limit := 4
	var want []time.Time
	for i := 0; i < 30; i++ {
		if i == 13 {
			limit = 2
			s3.SetPendingCap(limit)
		}
		at := time.Unix(int64(i), 0).UTC()
		s3.Ingest("site", at, ex)
		want = append(want, at)
		if len(want) > limit {
			want = want[len(want)-limit:]
		}
		got := s3.Snapshot().Pending["u"]
		if len(got) != len(want) || s3.Pending("u") != len(want) {
			t.Fatalf("after ingest %d: pending %d (snapshot %d), want %d", i, s3.Pending("u"), len(got), len(want))
		}
		for k := range got {
			if !got[k].SeenAt.Equal(want[k]) {
				t.Fatalf("after ingest %d: note %d seen at %v, want %v", i, k, got[k].SeenAt, want[k])
			}
		}
		if d := s3.Dropped(); d != i+1-len(want) {
			t.Fatalf("after ingest %d: dropped = %d, want %d", i, d, i+1-len(want))
		}
	}
	if notes := s3.Drain("u"); len(notes) != 2 || !notes[0].SeenAt.Equal(want[0]) || !notes[1].SeenAt.Equal(want[1]) {
		t.Fatalf("drained %v, want seen at %v", notes, want)
	}

	// Counter surfaces through the telemetry registry.
	s2 := NewService("x")
	s2.SetPendingCap(1)
	reg := telemetry.NewRegistry()
	s2.Instrument(reg)
	s2.Subscribe("u", KindEmail, "user@mail.com")
	s2.Ingest("site", time.Now(), ex)
	s2.Ingest("site", time.Now(), ex)
	if got := reg.Sum("doxmeter_notify_dropped_total"); got != 1 {
		t.Fatalf("doxmeter_notify_dropped_total = %v, want 1", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewService("shared-salt")
	s.Subscribe("alice", KindEmail, "alice@example.com")
	s.SubscribeAccount("alice", netid.Ref{Network: netid.Twitter, Username: "alicetw"})
	s.Subscribe("bob", KindPhone, "312-555-0142")
	s.Ingest("pastebin", time.Unix(100, 0).UTC(), exFromText("Email: alice@example.com"))

	st := s.Snapshot()

	// Restore must land in a service constructed with the SAME salt:
	// digests are salted, and the salt itself is never persisted.
	fresh := NewService("shared-salt")
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	if fresh.Pending("alice") != 1 {
		t.Fatalf("restored pending = %d", fresh.Pending("alice"))
	}
	ids, ingested, notified := fresh.Stats()
	if ids != 3 || ingested != 1 || notified != 1 {
		t.Fatalf("restored stats = %d/%d/%d", ids, ingested, notified)
	}
	// Subscriptions survive: the same dox still notifies.
	if n := fresh.Ingest("pastebin", time.Now(), exFromText("Twitter: alicetw\nPhone: 312.555.0142")); n != 2 {
		t.Fatalf("post-restore ingest = %d, want 2", n)
	}
	// Snapshot is a deep copy — mutating the restored service must not
	// bleed into the original.
	fresh.Drain("alice")
	if s.Pending("alice") != 1 {
		t.Fatal("restore aliased the snapshot's queues")
	}
}

// TestDeltaCutsUnderHTTPLoad takes delta cuts while HTTP clients
// subscribe, unsubscribe and drain, and the study side ingests: the race
// detector watches the journal, and once the clients stop, the cuts
// folded over the starting state must equal the final snapshot byte for
// byte. Every cut runs under the registry lock and every delta entry
// carries a value, not an operation, so a mutation racing with a cut
// lands in one cut or the next and none is lost. Not parallel: the leak
// check counts goroutines process-wide.
func TestDeltaCutsUnderHTTPLoad(t *testing.T) {
	settle := leakcheck.Mark(t)
	s := NewService("x")
	s.SetPendingCap(4)
	s.SetDeltaJournal()
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
		}
		return string(b)
	}
	var base State
	if err := json.Unmarshal([]byte(marshal(s.Snapshot())), &base); err != nil {
		t.Fatal(err)
	}
	cut := func() {
		d, _ := s.CutDelta()
		var sent Delta
		if err := json.Unmarshal([]byte(marshal(d)), &sent); err != nil {
			t.Fatal(err)
		}
		if err := sent.Apply(&base); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(s.Handler())
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				route := "/subscribe"
				if i%5 == 4 {
					route = "/unsubscribe"
				}
				body := fmt.Sprintf(`{"subscriber":"s%d","kind":"email","value":"u%d@mail.example"}`, c, i%3)
				resp, err := client.Post(srv.URL+route, "application/json", bytes.NewBufferString(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if i%3 == 2 {
					if resp, err = client.Get(fmt.Sprintf("%s/notifications?subscriber=s%d", srv.URL, c)); err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ex := exFromText("Email: u0@mail.example\nEmail: u1@mail.example\nEmail: u2@mail.example")
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s.Ingest("pastebin", time.Unix(100, 0).UTC(), ex)
		cut()
	}
	cut()
	srv.Close()
	tr.CloseIdleConnections()
	settle()
	if got, want := marshal(base), marshal(s.Snapshot()); got != want {
		t.Fatalf("cuts folded over the start diverged from the final snapshot:\n%s\nvs\n%s", got, want)
	}
	if _, ingested, _ := s.Stats(); ingested < 2 {
		t.Fatalf("only %d ingests ran beside the clients", ingested)
	}
}
