package sites

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"doxmeter/internal/sim"
	"doxmeter/internal/simclock"
	"doxmeter/internal/textgen"
)

func testDocs(t *testing.T) *textgen.Corpus {
	t.Helper()
	return textgen.New(sim.NewWorld(sim.Default(31, 0.002))).Corpus()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestPastebinScrapePaging(t *testing.T) {
	corpus := testDocs(t)
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period2.End) // everything visible
	pb := NewPastebin(clock, docs, DeletionModel{}, 1)
	srv := httptest.NewServer(pb.Handler())
	defer srv.Close()

	seen := map[string]bool{}
	dupes := 0
	since := int64(0)
	for {
		var page []PasteMeta
		getJSON(t, fmt.Sprintf("%s/api_scraping.php?since=%d&limit=250", srv.URL, since), &page)
		progressed := false
		for _, m := range page {
			if seen[m.Key] {
				// The inclusive cursor re-serves the boundary second's
				// pastes; clients de-duplicate by key.
				dupes++
			} else {
				seen[m.Key] = true
				progressed = true
			}
			if m.Date < since {
				t.Fatal("page not ordered by date")
			}
		}
		if !progressed {
			break // only boundary re-serves left: stream exhausted
		}
		since = page[len(page)-1].Date
	}
	if dupes > len(docs)/10 {
		t.Fatalf("%d boundary duplicates across %d pastes", dupes, len(docs))
	}
	// The inclusive cursor never skips: every paste must be seen.
	if len(seen) != len(docs) {
		t.Fatalf("paged %d of %d pastes", len(seen), len(docs))
	}
}

func TestPastebinVisibilityFollowsClock(t *testing.T) {
	corpus := testDocs(t)
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period1.Start)
	pb := NewPastebin(clock, docs, DeletionModel{}, 2)
	srv := httptest.NewServer(pb.Handler())
	defer srv.Close()

	var atStart []PasteMeta
	getJSON(t, srv.URL+"/api_scraping.php?since=0&limit=1000", &atStart)
	clock.Advance(14 * simclock.Day)
	var later []PasteMeta
	getJSON(t, srv.URL+"/api_scraping.php?since=0&limit=1000", &later)
	if len(later) <= len(atStart) {
		t.Fatalf("advancing the clock did not reveal posts: %d -> %d", len(atStart), len(later))
	}
	for _, m := range later {
		if time.Unix(m.Date, 0).After(clock.Now()) {
			t.Fatal("future paste visible")
		}
	}
}

func TestPastebinItemFetch(t *testing.T) {
	corpus := testDocs(t)
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period2.End)
	pb := NewPastebin(clock, docs, DeletionModel{}, 3)
	srv := httptest.NewServer(pb.Handler())
	defer srv.Close()

	doc := docs[0]
	resp, err := http.Get(srv.URL + "/api_scrape_item.php?i=" + doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != doc.Body {
		t.Fatal("fetched body differs from stored document")
	}
	// Unknown key: 404.
	resp, _ = http.Get(srv.URL + "/api_scrape_item.php?i=doesnotexist")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key status = %d", resp.StatusCode)
	}
	// Missing key: 400.
	resp, _ = http.Get(srv.URL + "/api_scrape_item.php")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing key status = %d", resp.StatusCode)
	}
}

// TestPastebinRequestsConcurrent: Requests counts every request that
// concurrent fetchers sent (bodies, listings, unknown and missing keys),
// none lost to a racing increment.
func TestPastebinRequestsConcurrent(t *testing.T) {
	docs := testDocs(t).Streams[textgen.SitePastebin]
	pb := NewPastebin(simclock.NewClock(simclock.Period2.End), docs, DeletionModel{}, 3)
	h := pb.Handler()
	const workers, perWorker = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var target string
				switch i % 4 {
				case 0:
					target = "/api_scraping.php?since=0&limit=5"
				case 1:
					target = "/api_scrape_item.php?i=doesnotexist"
				case 2:
					target = "/api_scrape_item.php"
				default:
					target = "/api_scrape_item.php?i=" + docs[(w*perWorker+i)%len(docs)].ID
				}
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
			}
		}(w)
	}
	wg.Wait()
	if got, want := pb.Requests(), int64(workers*perWorker); got != want {
		t.Fatalf("Requests() = %d after %d concurrent requests", got, want)
	}
}

func TestPastebinBadParams(t *testing.T) {
	clock := simclock.NewClock(simclock.Period1.Start)
	pb := NewPastebin(clock, nil, DeletionModel{}, 4)
	srv := httptest.NewServer(pb.Handler())
	defer srv.Close()
	for _, q := range []string{"limit=0", "limit=9999", "limit=abc", "since=notanumber"} {
		resp, _ := http.Get(srv.URL + "/api_scraping.php?" + q)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestDeletionModelRates(t *testing.T) {
	corpus := textgen.New(sim.NewWorld(sim.Default(33, 0.04))).Corpus()
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period2.End.Add(40 * simclock.Day))
	pb := NewPastebin(clock, docs, DefaultDeletionModel(), 5)

	horizon := clock.Now()
	var doxDel, doxTotal, otherDel, otherTotal int
	for _, d := range docs {
		if d.IsDox() {
			doxTotal++
			if pb.IsDeleted(d.ID, horizon) {
				doxDel++
			}
		} else {
			otherTotal++
			if pb.IsDeleted(d.ID, horizon) {
				otherDel++
			}
		}
	}
	doxRate := float64(doxDel) / float64(doxTotal)
	otherRate := float64(otherDel) / float64(otherTotal)
	if math.Abs(doxRate-DefaultDeletionModel().DoxRate) > 0.04 {
		t.Errorf("dox deletion rate %.3f, want ~%.3f", doxRate, DefaultDeletionModel().DoxRate)
	}
	if math.Abs(otherRate-0.042) > 0.01 {
		t.Errorf("other deletion rate %.3f, want ~0.042 (Table 3)", otherRate)
	}
	if doxRate < 2.5*otherRate {
		t.Errorf("dox deletion (%.3f) should be >3x other (%.3f)", doxRate, otherRate)
	}
}

func TestDeletedPaste404s(t *testing.T) {
	corpus := testDocs(t)
	docs := corpus.Streams[textgen.SitePastebin]
	clock := simclock.NewClock(simclock.Period2.End.Add(60 * simclock.Day))
	// Delete everything: rate 1.0 for both classes.
	pb := NewPastebin(clock, docs, DeletionModel{DoxRate: 1, OtherRate: 1}, 6)
	srv := httptest.NewServer(pb.Handler())
	defer srv.Close()
	resp, _ := http.Get(srv.URL + "/api_scrape_item.php?i=" + docs[0].ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted paste status = %d, want 404", resp.StatusCode)
	}
}

func TestBoardCatalogAndThreads(t *testing.T) {
	corpus := testDocs(t)
	clock := simclock.NewClock(simclock.Period2.End)
	site := NewBoardSite(clock, map[string][]textgen.Doc{
		"b":   corpus.Streams[textgen.SiteFourchanB],
		"pol": corpus.Streams[textgen.SiteFourchanPol],
	}, 7)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	if got := site.Boards(); len(got) != 2 || got[0] != "b" || got[1] != "pol" {
		t.Fatalf("boards = %v", got)
	}
	var pages []CatalogPage
	getJSON(t, srv.URL+"/b/catalog.json", &pages)
	if len(pages) == 0 {
		t.Fatal("empty catalog")
	}
	totalPosts := 0
	for _, page := range pages {
		if len(page.Threads) > threadsPerPage {
			t.Fatalf("page has %d threads", len(page.Threads))
		}
		for _, th := range page.Threads {
			var tj struct {
				Posts []ThreadPost `json:"posts"`
			}
			getJSON(t, fmt.Sprintf("%s/b/thread/%d.json", srv.URL, th.No), &tj)
			if len(tj.Posts) != th.Replies+1 {
				t.Fatalf("thread %d: %d posts vs %d replies", th.No, len(tj.Posts), th.Replies)
			}
			if tj.Posts[0].No != th.No {
				t.Fatalf("thread OP number mismatch")
			}
			totalPosts += len(tj.Posts)
			for _, p := range tj.Posts {
				if p.Com == "" {
					t.Fatal("empty post body")
				}
			}
		}
	}
	if want := len(corpus.Streams[textgen.SiteFourchanB]); totalPosts != want {
		t.Fatalf("board /b/ serves %d posts, corpus has %d", totalPosts, want)
	}
}

func TestBoardVisibilityFollowsClock(t *testing.T) {
	corpus := testDocs(t)
	clock := simclock.NewClock(simclock.Period2.Start)
	site := NewBoardSite(clock, map[string][]textgen.Doc{"pol": corpus.Streams[textgen.SiteEightchPol]}, 8)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	count := func() int {
		var pages []CatalogPage
		getJSON(t, srv.URL+"/pol/catalog.json", &pages)
		n := 0
		for _, pg := range pages {
			for _, th := range pg.Threads {
				n += th.Replies + 1
			}
		}
		return n
	}
	before := count()
	clock.Advance(25 * simclock.Day)
	after := count()
	if after <= before {
		t.Fatalf("catalog did not grow with clock: %d -> %d", before, after)
	}
}

func TestBoardErrors(t *testing.T) {
	clock := simclock.NewClock(simclock.Period2.Start)
	site := NewBoardSite(clock, map[string][]textgen.Doc{"b": nil}, 9)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()
	for path, want := range map[string]int{
		"/nosuch/catalog.json":    http.StatusNotFound,
		"/b/thread/999.json":      http.StatusNotFound,
		"/b/thread/abc.json":      http.StatusBadRequest,
		"/b/random":               http.StatusNotFound,
		"/":                       http.StatusNotFound,
		"/b/thread/12/extra.json": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestDocIDForPost(t *testing.T) {
	corpus := testDocs(t)
	clock := simclock.NewClock(simclock.Period2.End)
	docs := corpus.Streams[textgen.SiteEightchBapho]
	site := NewBoardSite(clock, map[string][]textgen.Doc{"baphomet": docs}, 10)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()
	var pages []CatalogPage
	getJSON(t, srv.URL+"/baphomet/catalog.json", &pages)
	no := pages[0].Threads[0].No
	id, ok := site.DocIDForPost("baphomet", no)
	if !ok || id == "" {
		t.Fatalf("DocIDForPost(%d) = %q,%v", no, id, ok)
	}
	if _, ok := site.DocIDForPost("baphomet", -1); ok {
		t.Fatal("bogus post number resolved")
	}
}
