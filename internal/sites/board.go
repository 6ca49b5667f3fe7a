package sites

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"doxmeter/internal/randutil"
	"doxmeter/internal/simclock"
	"doxmeter/internal/textgen"
)

// BoardSite simulates a 4chan/8ch-style imageboard JSON API:
//
//	GET /<board>/catalog.json        — pages of thread stubs with
//	    last_modified timestamps, newest activity first.
//	GET /<board>/thread/<no>.json    — the posts of one thread; post
//	    bodies are HTML in the "com" field, exactly as the real APIs
//	    serve them.
//
// Documents are grouped into threads at construction; posts become visible
// as the virtual clock passes their timestamps. Safe for concurrent use:
// the threads are fixed at construction, so requests read them without a
// lock.
type BoardSite struct {
	clock  *simclock.Clock
	boards map[string][]*thread
}

type thread struct {
	no    int64
	posts []boardPost // sorted by time
}

type boardPost struct {
	no     int64
	posted time.Time
	com    string
	docID  string
}

// CatalogThread is one stub in catalog.json.
type CatalogThread struct {
	No           int64 `json:"no"`
	LastModified int64 `json:"last_modified"`
	Replies      int   `json:"replies"`
}

// CatalogPage groups thread stubs.
type CatalogPage struct {
	Page    int             `json:"page"`
	Threads []CatalogThread `json:"threads"`
}

// ThreadPost is one post in thread JSON.
type ThreadPost struct {
	No   int64  `json:"no"`
	Time int64  `json:"time"`
	Name string `json:"name"`
	Com  string `json:"com"`
}

// NewBoardSite builds a site hosting the given per-board document streams.
// Documents are chunked chronologically into threads of 20–80 posts.
func NewBoardSite(clock *simclock.Clock, boards map[string][]textgen.Doc, seed int64) *BoardSite {
	s := &BoardSite{clock: clock, boards: make(map[string][]*thread, len(boards))}
	r := randutil.New(seed)
	postNo := int64(10_000_000)
	// Deterministic board order for post numbering.
	names := make([]string, 0, len(boards))
	for name := range boards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		docs := make([]textgen.Doc, len(boards[name]))
		copy(docs, boards[name])
		sort.SliceStable(docs, func(i, j int) bool { return docs[i].Posted.Before(docs[j].Posted) })
		var threads []*thread
		i := 0
		for i < len(docs) {
			size := 20 + r.Intn(61)
			if i+size > len(docs) {
				size = len(docs) - i
			}
			th := &thread{}
			for j := 0; j < size; j++ {
				postNo++
				if j == 0 {
					th.no = postNo
				}
				d := docs[i+j]
				th.posts = append(th.posts, boardPost{no: postNo, posted: d.Posted, com: d.Body, docID: d.ID})
			}
			threads = append(threads, th)
			i += size
		}
		s.boards[name] = threads
	}
	return s
}

// Boards lists the hosted board names, sorted.
func (s *BoardSite) Boards() []string {
	names := make([]string, 0, len(s.boards))
	for n := range s.boards {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handler returns the HTTP interface.
func (s *BoardSite) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/")
		switch {
		case len(parts) == 2 && parts[1] == "catalog.json":
			s.handleCatalog(w, req, parts[0])
		case len(parts) == 3 && parts[1] == "thread" && strings.HasSuffix(parts[2], ".json"):
			no, err := strconv.ParseInt(strings.TrimSuffix(parts[2], ".json"), 10, 64)
			if err != nil {
				http.Error(w, "bad thread number", http.StatusBadRequest)
				return
			}
			s.handleThread(w, req, parts[0], no)
		default:
			http.NotFound(w, req)
		}
	})
}

const threadsPerPage = 15

func (s *BoardSite) handleCatalog(w http.ResponseWriter, req *http.Request, board string) {
	threads, ok := s.boards[board]
	if !ok {
		http.NotFound(w, req)
		return
	}
	now := s.clock.Now()
	var stubs []CatalogThread
	for _, th := range threads {
		visible := th.visibleCount(now)
		if visible == 0 {
			continue
		}
		stubs = append(stubs, CatalogThread{
			No:           th.no,
			LastModified: th.posts[visible-1].posted.Unix(),
			Replies:      visible - 1,
		})
	}
	// Newest activity first, like real catalogs.
	sort.Slice(stubs, func(i, j int) bool { return stubs[i].LastModified > stubs[j].LastModified })
	pages := make([]CatalogPage, 0, len(stubs)/threadsPerPage+1)
	for i := 0; i < len(stubs); i += threadsPerPage {
		end := i + threadsPerPage
		if end > len(stubs) {
			end = len(stubs)
		}
		pages = append(pages, CatalogPage{Page: i/threadsPerPage + 1, Threads: stubs[i:end]})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(pages)
}

func (s *BoardSite) handleThread(w http.ResponseWriter, req *http.Request, board string, no int64) {
	threads, ok := s.boards[board]
	if !ok {
		http.NotFound(w, req)
		return
	}
	now := s.clock.Now()
	for _, th := range threads {
		if th.no != no {
			continue
		}
		visible := th.visibleCount(now)
		if visible == 0 {
			break
		}
		out := struct {
			Posts []ThreadPost `json:"posts"`
		}{}
		for _, p := range th.posts[:visible] {
			out.Posts = append(out.Posts, ThreadPost{No: p.no, Time: p.posted.Unix(), Name: "Anonymous", Com: p.com})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
		return
	}
	http.NotFound(w, req)
}

// visibleCount returns how many of the thread's time-sorted posts exist at
// the given instant.
func (th *thread) visibleCount(now time.Time) int {
	return sort.Search(len(th.posts), func(i int) bool { return th.posts[i].posted.After(now) })
}

// DocIDForPost maps a board post number back to its document ID (test and
// ground-truth plumbing; the crawler never uses it).
func (s *BoardSite) DocIDForPost(board string, no int64) (string, bool) {
	for _, th := range s.boards[board] {
		for _, p := range th.posts {
			if p.no == no {
				return p.docID, true
			}
		}
	}
	return "", false
}
