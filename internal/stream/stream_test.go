package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"doxmeter/internal/crawler"
	"doxmeter/internal/extract"
	"doxmeter/internal/feed"
	"doxmeter/internal/leakcheck"
	"doxmeter/internal/notify"
	"doxmeter/internal/telemetry"
	"doxmeter/internal/watchlist"
)

func doc(site, id string, posted time.Time) crawler.Doc {
	return crawler.Doc{Site: site, ID: id, Body: "body " + id, Posted: posted}
}

func commitOrderKey(d *crawler.Doc) string {
	return d.Posted.Format(time.RFC3339) + "/" + d.Site + "/" + d.ID
}

// TestEpochOrderAndCompleteness: documents arrive from racing polls in
// arbitrary order, yet commit in exactly the batch comparator order, with
// nothing dropped or duplicated.
func TestEpochOrderAndCompleteness(t *testing.T) {
	p := New(Config[int]{
		Shards:          4,
		Buffer:          8,
		PollParallelism: 3,
		Prepare:         func(d *crawler.Doc) int { return len(d.Body) },
	})
	defer p.Close()

	base := time.Unix(1_000_000, 0).UTC()
	var want []string
	mkSource := func(site string, n int) Source {
		docs := make([]crawler.Doc, n)
		for i := 0; i < n; i++ {
			// Deliberately descending times so the sequencer must reorder.
			docs[i] = doc(site, fmt.Sprintf("d%03d", i), base.Add(time.Duration(n-i)*time.Minute))
			want = append(want, commitOrderKey(&docs[i]))
		}
		return Source{Name: site, Poll: func(ctx context.Context) ([]crawler.Doc, error) {
			return docs, nil
		}}
	}
	sources := []Source{mkSource("pastebin", 40), mkSource("4chan/b", 25), mkSource("8ch/pol", 13)}

	var got []string
	stats, err := p.RunEpoch(context.Background(), sources, func(d *crawler.Doc, pre int) {
		if pre != len(d.Body) {
			t.Errorf("prepared payload mismatch for %s/%s", d.Site, d.ID)
		}
		got = append(got, commitOrderKey(d))
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != len(want) || len(stats.Failures) != 0 {
		t.Fatalf("stats = %+v, want %d committed", stats, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("committed %d docs, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("commit order violated at %d: %q then %q", i, got[i-1], got[i])
		}
	}
	seen := make(map[string]bool, len(got))
	for _, k := range got {
		if seen[k] {
			t.Fatalf("duplicate commit %q", k)
		}
		seen[k] = true
	}
	for _, k := range want {
		if !seen[k] {
			t.Fatalf("missing commit %q", k)
		}
	}
}

// TestBackpressure throttles the prepare stage behind a gate far smaller
// than the document count: the bounded channels must block pollers (visible
// in the backpressure counters), never drop a document, and still commit
// everything in order once the gate opens.
func TestBackpressure(t *testing.T) {
	const total = 200
	reg := telemetry.NewRegistry()
	gate := make(chan struct{})
	var prepared sync.WaitGroup
	prepared.Add(1)
	var once sync.Once
	p := New(Config[int]{
		Shards: 2,
		Buffer: 4,
		Prepare: func(d *crawler.Doc) int {
			once.Do(prepared.Done) // first doc reached prepare: queues are filling
			<-gate
			return 1
		},
		Telemetry: reg,
	})
	defer p.Close()

	base := time.Unix(2_000_000, 0).UTC()
	docs := make([]crawler.Doc, total)
	for i := range docs {
		docs[i] = doc("pastebin", fmt.Sprintf("d%04d", i), base.Add(time.Duration(i)*time.Second))
	}
	src := Source{Name: "pastebin", Poll: func(ctx context.Context) ([]crawler.Doc, error) {
		return docs, nil
	}}

	go func() {
		prepared.Wait()
		// Give the poller time to saturate every bounded stage, then check
		// the queues really are bounded while the pipe is jammed.
		time.Sleep(100 * time.Millisecond)
		depth := reg.Sum("doxmeter_stream_queue_depth")
		if depth <= 0 || depth >= total {
			panic(fmt.Sprintf("jammed queue depth = %v, want bounded in (0,%d)", depth, total))
		}
		close(gate)
	}()

	commits := 0
	last := ""
	stats, err := p.RunEpoch(context.Background(), []Source{src}, func(d *crawler.Doc, pre int) {
		k := commitOrderKey(d)
		if k <= last {
			t.Errorf("order violated: %q after %q", k, last)
		}
		last = k
		commits++
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits != total || stats.Committed != total {
		t.Fatalf("committed %d/%d docs", commits, total)
	}
	if bp := reg.Sum("doxmeter_stream_backpressure_total"); bp == 0 {
		t.Fatal("no backpressure recorded despite a jammed prepare stage")
	}
	if depth := reg.Sum("doxmeter_stream_queue_depth"); depth != 0 {
		t.Fatalf("post-epoch queue depth = %v, want 0", depth)
	}
	if reg.Sum("doxmeter_stream_docs_total") != total {
		t.Fatalf("docs counter = %v", reg.Sum("doxmeter_stream_docs_total"))
	}
}

// TestPollFailureDegrades: a failing source reports in Failures while its
// delivered documents and the healthy sources' documents still commit.
func TestPollFailureDegrades(t *testing.T) {
	p := New(Config[struct{}]{
		Shards:  1,
		Prepare: func(d *crawler.Doc) struct{} { return struct{}{} },
	})
	defer p.Close()
	base := time.Unix(3_000_000, 0).UTC()
	bad := errors.New("fetch: boom")
	sources := []Source{
		{Name: "pastebin", Poll: func(ctx context.Context) ([]crawler.Doc, error) {
			return []crawler.Doc{doc("pastebin", "ok", base)}, nil
		}},
		{Name: "4chan/b", Poll: func(ctx context.Context) ([]crawler.Doc, error) {
			// Partial poll: one doc delivered, then the crawl died.
			return []crawler.Doc{doc("4chan/b", "partial", base)}, bad
		}},
	}
	n := 0
	stats, err := p.RunEpoch(context.Background(), sources, func(d *crawler.Doc, _ struct{}) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || stats.Committed != 2 {
		t.Fatalf("committed %d, want 2 (partial polls still commit)", n)
	}
	if len(stats.Failures) != 1 || stats.Failures[0].Name != "4chan/b" || !errors.Is(stats.Failures[0].Err, bad) {
		t.Fatalf("failures = %+v", stats.Failures)
	}
}

// TestCancelledEpochNeverCommits: cancellation mid-poll must abort without
// invoking commit — a partially-polled day must not fold into the digest —
// and must leave no goroutine of the epoch behind; the pipeline's own
// shard and alert workers, started before the count, stay. Not parallel:
// the goroutine count is process-wide.
func TestCancelledEpochNeverCommits(t *testing.T) {
	p := New(Config[struct{}]{
		Shards:  1,
		Prepare: func(d *crawler.Doc) struct{} { return struct{}{} },
	})
	defer p.Close()
	settle := leakcheck.Mark(t)
	ctx, cancel := context.WithCancel(context.Background())
	src := Source{Name: "pastebin", Poll: func(ctx context.Context) ([]crawler.Doc, error) {
		cancel()
		return []crawler.Doc{doc("pastebin", "x", time.Unix(0, 0))}, nil
	}}
	_, err := p.RunEpoch(ctx, []Source{src}, func(d *crawler.Doc, _ struct{}) {
		t.Error("cancelled epoch committed a document")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settle()
}

// TestAlertFanoutOrderAndDrain: alerts emitted from commits are delivered
// in commit order, all before RunEpoch returns.
func TestAlertFanoutOrderAndDrain(t *testing.T) {
	var delivered []string
	var p *Pipeline[struct{}]
	p = New(Config[struct{}]{
		Shards:  3,
		Buffer:  2,
		Prepare: func(d *crawler.Doc) struct{} { return struct{}{} },
		Deliver: func(d Detection) {
			time.Sleep(time.Millisecond) // slow consumer: exercises the commit-stage backpressure path
			delivered = append(delivered, d.DocID)
		},
	})
	defer p.Close()
	base := time.Unix(4_000_000, 0).UTC()
	docs := make([]crawler.Doc, 30)
	for i := range docs {
		docs[i] = doc("pastebin", fmt.Sprintf("d%02d", i), base)
	}
	src := Source{Name: "pastebin", Poll: func(ctx context.Context) ([]crawler.Doc, error) {
		return docs, nil
	}}
	_, err := p.RunEpoch(context.Background(), []Source{src}, func(d *crawler.Doc, _ struct{}) {
		p.EmitAlert(Detection{Site: d.Site, DocID: d.ID, SeenAt: d.Posted})
	})
	if err != nil {
		t.Fatal(err)
	}
	// RunEpoch returned, so the drain barrier guarantees `delivered` is
	// complete and no goroutine touches it anymore.
	if len(delivered) != len(docs) {
		t.Fatalf("delivered %d alerts, want %d", len(delivered), len(docs))
	}
	for i := range delivered {
		if want := fmt.Sprintf("d%02d", i); delivered[i] != want {
			t.Fatalf("alert %d = %q, want %q (commit order)", i, delivered[i], want)
		}
	}
}

func TestFanoutDeliver(t *testing.T) {
	svc := notify.NewService("salt")
	svc.Subscribe("victim", notify.KindEmail, "victim@mail.com")
	now := time.Unix(5_000_000, 0).UTC()
	wl := watchlist.New(0, func() time.Time { return now })
	log := feed.NewLog()
	f := &Fanout{Notify: svc, Watchlist: wl, Feed: log}

	text := "Name: Jane Doe\nEmail: victim@mail.com\nPhone: 312-555-0142\nAddress: 42 Elm St, Chicago IL\nTwitter: janed"
	ex := extract.Extract(text)
	f.Deliver(Detection{
		Site: "pastebin", DocID: "abc", SeenAt: now,
		Extraction: ex, AddressLine: AddressLine(text),
	})

	if svc.Pending("victim") != 1 {
		t.Errorf("notify pending = %d", svc.Pending("victim"))
	}
	if _, listed := wl.CheckAddress("42 Elm St, Chicago IL"); !listed {
		t.Error("address not watchlisted")
	}
	if _, listed := wl.CheckPhone("312-555-0142"); !listed {
		t.Error("phone not watchlisted")
	}
	evs, err := log.After(0, 0)
	if err != nil || len(evs) != 1 || evs[0].Site != "pastebin" {
		t.Errorf("feed events = %v, err %v", evs, err)
	}
	if !strings.Contains(evs[0].URL, "abc") {
		t.Errorf("feed URL = %q", evs[0].URL)
	}

	// All-nil fanout is a no-op, not a panic.
	(&Fanout{}).Deliver(Detection{Extraction: ex})
	if (&Fanout{}).Janitor() != 0 {
		t.Error("nil-watchlist janitor purged something")
	}
}

func TestAddressLine(t *testing.T) {
	cases := []struct{ text, want string }{
		{"Name: X\nAddress: 42 Elm St\nPhone: 1", "42 Elm St"},
		{"Lives at: 9 Oak Ave", "9 Oak Ave"},
		{"no address here", ""},
		{"Address: trailing line", "trailing line"},
	}
	for _, c := range cases {
		if got := AddressLine(c.text); got != c.want {
			t.Errorf("AddressLine(%q) = %q, want %q", c.text, got, c.want)
		}
	}
}

// TestPipelineReuseAcrossEpochs: stage goroutines persist; consecutive
// epochs on one pipeline stay ordered and complete.
func TestPipelineReuseAcrossEpochs(t *testing.T) {
	p := New(Config[struct{}]{
		Shards:  2,
		Prepare: func(d *crawler.Doc) struct{} { return struct{}{} },
	})
	defer p.Close()
	base := time.Unix(6_000_000, 0).UTC()
	for epoch := 0; epoch < 5; epoch++ {
		docs := make([]crawler.Doc, 17)
		for i := range docs {
			docs[i] = doc("pastebin", fmt.Sprintf("e%dd%02d", epoch, i), base.Add(time.Duration(i)*time.Second))
		}
		src := Source{Name: "pastebin", Poll: func(ctx context.Context) ([]crawler.Doc, error) {
			return docs, nil
		}}
		n := 0
		stats, err := p.RunEpoch(context.Background(), []Source{src}, func(d *crawler.Doc, _ struct{}) { n++ })
		if err != nil || n != len(docs) || stats.Committed != len(docs) {
			t.Fatalf("epoch %d: committed %d err %v", epoch, n, err)
		}
	}
}

// TestClosedPipeline: RunEpoch on a closed pipeline errors cleanly.
func TestClosedPipeline(t *testing.T) {
	p := New(Config[struct{}]{Shards: 1, Prepare: func(d *crawler.Doc) struct{} { return struct{}{} }})
	p.Close()
	p.Close() // idempotent
	src := Source{Name: "s", Poll: func(ctx context.Context) ([]crawler.Doc, error) {
		return []crawler.Doc{doc("s", "x", time.Unix(0, 0))}, nil
	}}
	if _, err := p.RunEpoch(context.Background(), []Source{src}, func(*crawler.Doc, struct{}) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
