package crawler

import (
	"errors"
	"slices"
	"testing"
)

// Fuzz targets for the crawler's three byte-level parsers. A live crawl
// feeds these functions whatever a faulting, truncating, corrupting
// network delivers, so the contract under fuzzing is total safety: no
// panic on any input, errors always wrap ErrCorruptPayload, and a failed
// parse returns nothing. The pollers decode each payload into storage the
// previous one filled, so every target decodes into a target dirtied by a
// full payload and requires what a fresh decode returns: a field the new
// JSON omits must not keep the old value. The seeds that omit a field
// check exactly that.

func fuzzSeeds(f *testing.F, seeds ...string) {
	f.Helper()
	for _, s := range seeds {
		f.Add([]byte(s))
	}
}

// decodeUsed decodes full into a fresh target and then raw into the same
// target, as a poller's second fetch does.
func decodeUsed[T any](t *testing.T, full string, parse func([]byte, T) (T, error), raw []byte) (T, error) {
	t.Helper()
	var zero T
	used, err := parse([]byte(full), zero)
	if err != nil {
		t.Fatalf("full payload: %v", err)
	}
	return parse(raw, used)
}

func checkParse(t *testing.T, err, fresh error, n int) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrCorruptPayload) {
		t.Fatalf("parse error does not wrap ErrCorruptPayload: %v", err)
	}
	if err != nil && n != 0 {
		t.Fatalf("failed parse returned %d partial entries", n)
	}
	if (err == nil) != (fresh == nil) {
		t.Fatalf("decode into a used target: error %v; fresh decode: %v", err, fresh)
	}
}

func FuzzParseListing(f *testing.F) {
	fuzzSeeds(f,
		`[]`,
		`[{"key":"abc123","title":"dox","date":1468800000}]`,
		`[{"key":"abc123","date":1468800000}]`,   // no title
		`[{"key":"abc123","title":"dox","date":`, // truncated mid-value
		`[{"key":"abc123"},{`,                    // truncated mid-object
		"\x00\x1finjected-corruption 00000000 {{{",
		`{"key":"not-an-array"}`,
		`[{"key":1,"date":"backwards-types"}]`,
	)
	const full = `[{"key":"old1","title":"old title","date":1468700000},{"key":"old2","title":"old title 2","date":1468700001}]`
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, werr := parseListingInto(raw, nil)
		page, err := decodeUsed(t, full, parseListingInto, raw)
		checkParse(t, err, werr, len(page))
		if !slices.Equal(page, want) {
			t.Fatalf("decode into a used target = %+v; fresh decode = %+v", page, want)
		}
	})
}

func FuzzParseCatalog(f *testing.F) {
	fuzzSeeds(f,
		`[]`,
		`[{"page":0,"threads":[{"no":1,"last_modified":10}]}]`,
		`[{"page":0,"threads":[{"no":1}]}]`,                      // no last_modified
		`[{"threads":[{"no":1,"last_modified":10}]},{"page":1}]`, // no page, no threads
		`[{"page":0,"threads":[{"no":1,"last_mod`,                // truncated mid-key
		`[{"page":"zero"}]`,
		"\xff\xfe\xfd",
		`[[[[[[`,
	)
	const full = `[{"page":0,"threads":[{"no":1,"last_modified":10},{"no":2,"last_modified":20}]},{"page":1,"threads":[{"no":3,"last_modified":30}]}]`
	samePage := func(a, b catalogPage) bool { return a.Page == b.Page && slices.Equal(a.Threads, b.Threads) }
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, werr := parseCatalogInto(raw, nil)
		pages, err := decodeUsed(t, full, parseCatalogInto, raw)
		checkParse(t, err, werr, len(pages))
		if !slices.EqualFunc(pages, want, samePage) {
			t.Fatalf("decode into a used target = %+v; fresh decode = %+v", pages, want)
		}
	})
}

func FuzzParseThread(f *testing.F) {
	fuzzSeeds(f,
		`{"posts":[]}`,
		`{"posts":[{"no":101,"time":5,"com":"<b>hi</b>"}]}`,
		`{"posts":[{"no":101,"time":5}]}`,         // no com: a post without text
		`{"posts":[{"no":101,"time":5,"com":"tru`, // truncated mid-string
		`{"posts":{"no":101}}`,
		`null`,
		"{",
	)
	const full = `{"posts":[{"no":1,"time":1,"com":"old text"},{"no":2,"time":2,"com":"old text 2"}]}`
	parse := func(raw []byte, tj *threadJSON) (*threadJSON, error) {
		if tj == nil {
			tj = new(threadJSON)
		}
		return tj, parseThreadInto(raw, tj)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, werr := parse(raw, nil)
		tj, err := decodeUsed(t, full, parse, raw)
		checkParse(t, err, werr, len(tj.Posts))
		if !slices.Equal(tj.Posts, want.Posts) {
			t.Fatalf("decode into a used target = %+v; fresh decode = %+v", tj.Posts, want.Posts)
		}
	})
}

// FuzzParseRetryAfter hardens the header parser: arbitrary header bytes
// must never panic or produce a negative delay.
func FuzzParseRetryAfter(f *testing.F) {
	for _, s := range []string{"3", "0.25", "-1", "NaN", "Inf", "1e99", "Wed, 21 Oct 2015 07:28:00 GMT", "garbage", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		d, ok := parseRetryAfter(v)
		if d < 0 {
			t.Fatalf("parseRetryAfter(%q) returned negative delay %v", v, d)
		}
		if !ok && d != 0 {
			t.Fatalf("parseRetryAfter(%q) = (%v, false), want zero delay when not ok", v, d)
		}
	})
}
