package feed

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"doxmeter/internal/leakcheck"
	"doxmeter/internal/netid"
)

func TestPublishAndReplay(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		seq := l.Publish("pastebin", URLFor("pastebin", "abc"), time.Now(), []netid.Ref{
			{Network: netid.Facebook, Username: "user1"},
		})
		if seq != int64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("len = %d", l.Len())
	}
	all, err := l.After(0, 0)
	if err != nil || len(all) != 5 {
		t.Fatalf("replay = %d events, err %v", len(all), err)
	}
	tail, err := l.After(3, 0)
	if err != nil || len(tail) != 2 || tail[0].Seq != 4 {
		t.Fatalf("cursor replay = %v, err %v", tail, err)
	}
	if got, err := l.After(99, 0); err != nil || got != nil {
		t.Fatalf("beyond-end replay = %v, err %v", got, err)
	}
	limited, err := l.After(0, 2)
	if err != nil || len(limited) != 2 {
		t.Fatalf("limited replay = %d, err %v", len(limited), err)
	}
	if all[0].Accounts[0] != "facebook:user1" {
		t.Fatalf("account key = %q", all[0].Accounts[0])
	}
}

func TestHTTPReplay(t *testing.T) {
	l := NewLog()
	l.Publish("pastebin", "u1", time.Now(), nil)
	l.Publish("4chan/b", "u2", time.Now(), nil)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events?cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	if len(events) != 2 || events[1].Site != "4chan/b" {
		t.Fatalf("events = %v", events)
	}
}

func TestHTTPLongPoll(t *testing.T) {
	l := NewLog()
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	done := make(chan []Event, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/events?cursor=0&wait=5s")
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		var events []Event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e Event
			_ = json.Unmarshal(sc.Bytes(), &e)
			events = append(events, e)
		}
		done <- events
	}()
	time.Sleep(50 * time.Millisecond)
	l.Publish("pastebin", "late", time.Now(), nil)
	select {
	case events := <-done:
		if len(events) != 1 || events[0].URL != "late" {
			t.Fatalf("long poll got %v", events)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never returned")
	}
}

// TestEmptyReadWakeChannel pins the long-poll wake-up: the channel handed
// out with an empty read is the one the next Publish closes, so an event
// published after the read but before the poller waits still wakes it.
func TestEmptyReadWakeChannel(t *testing.T) {
	l := NewLog()
	events, wake, err := l.after(0, 10)
	if err != nil || len(events) != 0 {
		t.Fatalf("empty log read = %v, %v", events, err)
	}
	select {
	case <-wake:
		t.Fatal("wake channel closed before any publish")
	default:
	}
	l.Publish("pastebin", "u", time.Now(), nil)
	select {
	case <-wake:
	default:
		t.Fatal("publish after an empty read left its wake channel open")
	}
	if events, _, _ = l.after(0, 10); len(events) != 1 {
		t.Fatalf("read after publish = %v, want one event", events)
	}
}

// TestHTTPLongPollTimeout: a long-poll that times out answers empty and
// leaves no goroutine behind once its connection is closed. Not parallel:
// the goroutine count is process-wide.
func TestHTTPLongPollTimeout(t *testing.T) {
	l := NewLog()
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	tr := &http.Transport{}
	settle := leakcheck.Mark(t)
	start := time.Now()
	resp, err := (&http.Client{Transport: tr}).Get(srv.URL + "/events?cursor=0&wait=100ms")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("timeout poll took %v", elapsed)
	}
	tr.CloseIdleConnections()
	settle()
}

// TestHTTPLongPollClientCancel: a client that gives up on a long-poll ends
// the parked handler, and every goroutine of the exchange exits, long
// before the poll's own wait would have run out. Not parallel: the
// goroutine count is process-wide.
func TestHTTPLongPollClientCancel(t *testing.T) {
	l := NewLog()
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	settle := leakcheck.Mark(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events?cursor=0&wait=50s", nil)
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("cancelled long-poll answered %d", resp.StatusCode)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	settle()
}

func TestHTTPBadParams(t *testing.T) {
	srv := httptest.NewServer(NewLog().Handler())
	defer srv.Close()
	for _, q := range []string{"cursor=-1", "cursor=abc", "limit=0", "limit=x", "wait=2h", "wait=bogus"} {
		resp, _ := http.Get(srv.URL + "/events?" + q)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestRingRetention(t *testing.T) {
	l := NewLogRetention(4)
	for i := 0; i < 10; i++ {
		l.Publish("pastebin", URLFor("pastebin", "k"), time.Now(), nil)
	}
	if l.Len() != 4 {
		t.Fatalf("retained = %d, want 4", l.Len())
	}
	if l.FirstSeq() != 7 || l.LastSeq() != 10 {
		t.Fatalf("window = [%d,%d], want [7,10]", l.FirstSeq(), l.LastSeq())
	}
	// Cursor 6 asks for events starting at seq 7 — still retained.
	evs, err := l.After(6, 0)
	if err != nil || len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("After(6) = %v, err %v", evs, err)
	}
	// Cursor 5 would need seq 6, which the ring has overwritten.
	if _, err := l.After(5, 0); err != ErrCursorExpired {
		t.Fatalf("After(5) err = %v, want ErrCursorExpired", err)
	}
	if _, err := l.After(0, 0); err != ErrCursorExpired {
		t.Fatalf("After(0) err = %v, want ErrCursorExpired", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	l := NewLogRetention(8)
	for i := 0; i < 12; i++ {
		l.Publish("pastebin", URLFor("pastebin", "k"), time.Unix(int64(i), 0).UTC(), []netid.Ref{
			{Network: netid.Twitter, Username: "u"},
		})
	}
	st := l.Snapshot()
	if st.NextSeq != 13 || len(st.Events) != 8 {
		t.Fatalf("snapshot = next %d, %d events", st.NextSeq, len(st.Events))
	}

	fresh := NewLogRetention(8)
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	if fresh.FirstSeq() != l.FirstSeq() || fresh.LastSeq() != l.LastSeq() {
		t.Fatalf("restored window = [%d,%d], want [%d,%d]",
			fresh.FirstSeq(), fresh.LastSeq(), l.FirstSeq(), l.LastSeq())
	}
	want, _ := l.After(6, 0)
	got, err := fresh.After(6, 0)
	if err != nil || len(got) != len(want) {
		t.Fatalf("restored After = %v, err %v", got, err)
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].URL != want[i].URL {
			t.Fatalf("restored event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Publishing continues from the restored sequence.
	if seq := fresh.Publish("pastebin", "u", time.Now(), nil); seq != 13 {
		t.Fatalf("post-restore seq = %d, want 13", seq)
	}

	// Restoring into a smaller ring clips to the newest events.
	small := NewLogRetention(3)
	if err := small.Restore(st); err != nil {
		t.Fatal(err)
	}
	if small.Len() != 3 || small.FirstSeq() != 10 || small.LastSeq() != 12 {
		t.Fatalf("clipped restore = len %d window [%d,%d]", small.Len(), small.FirstSeq(), small.LastSeq())
	}

	// Inconsistent state is rejected.
	bad := st
	bad.NextSeq = 99
	if err := NewLog().Restore(bad); err == nil {
		t.Fatal("inconsistent restore accepted")
	}
}

func TestHTTPCursorExpired(t *testing.T) {
	l := NewLogRetention(2)
	for i := 0; i < 5; i++ {
		l.Publish("pastebin", "u", time.Now(), nil)
	}
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events?cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status = %d, want 410", resp.StatusCode)
	}
	var buf [256]byte
	n, _ := resp.Body.Read(buf[:])
	if !strings.Contains(string(buf[:n]), "cursor=3") {
		t.Fatalf("body = %q, want resync hint at cursor=3", buf[:n])
	}
}

// TestConcurrentLongPoll hammers the log with concurrent publishers,
// long-pollers, and cancelled clients; run under -race it proves the
// waiter/ring bookkeeping is race-clean and no poller misses its wake-up.
func TestConcurrentLongPoll(t *testing.T) {
	l := NewLogRetention(64)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	const pollers = 8
	got := make(chan int, pollers)
	for i := 0; i < pollers; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/events?cursor=0&wait=5s")
			if err != nil {
				got <- -1
				return
			}
			defer resp.Body.Close()
			n := 0
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				n++
			}
			got <- n
		}()
	}
	// A few clients give up before any event arrives.
	for i := 0; i < 4; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events?cursor=0&wait=5s", nil)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(40 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				l.Publish("pastebin", "u", time.Now(), nil)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < pollers; i++ {
		select {
		case n := <-got:
			if n < 1 {
				t.Fatalf("poller got %d events", n)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("poller never woke")
		}
	}
	if l.LastSeq() != 32 {
		t.Fatalf("published = %d, want 32", l.LastSeq())
	}
}

func TestURLFor(t *testing.T) {
	if u := URLFor("pastebin", "k1"); !strings.Contains(u, "pastebin") || !strings.Contains(u, "k1") {
		t.Errorf("URLFor = %q", u)
	}
	if u := URLFor("4chan/b", "12"); !strings.Contains(u, "4chan") {
		t.Errorf("URLFor = %q", u)
	}
}
