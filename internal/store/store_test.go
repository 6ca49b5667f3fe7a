package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testSnapshot(seq uint64) *Snapshot {
	return &Snapshot{
		Seq: seq,
		Meta: Meta{
			Seed:        23,
			Scale:       0.004,
			VirtualTime: time.Date(2016, 7, 30, 0, 0, 0, 0, time.UTC),
			Period:      1,
			Day:         10,
		},
		Components: map[string]json.RawMessage{
			"core":  json.RawMessage(`{"collected":120,"doxes":3}`),
			"dedup": json.RawMessage(`{"bodies":{"ab12":"pastebin/x1"}}`),
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	snap := testSnapshot(7)
	b, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != snap.Seq || got.Meta != snap.Meta {
		t.Fatalf("round trip changed snapshot: %+v vs %+v", got, snap)
	}
	// Encode(Decode(b)) must be byte-identical: RawMessage components are
	// preserved verbatim and map keys marshal sorted.
	b2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-encode not byte-identical:\n%q\nvs\n%q", b, b2)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	snap := testSnapshot(1)
	b, _ := Encode(snap)
	skewed := bytes.Replace(b, []byte(" v1\n"), []byte(" v99\n"), 1)
	if _, err := Decode(skewed); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("header skew: got %v, want ErrVersionSkew", err)
	}
	// Body version disagreeing with the header is also skew.
	bodySkew := bytes.Replace(b, []byte(`"version":1`), []byte(`"version":2`), 1)
	if _, err := Decode(bodySkew); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("body skew: got %v, want ErrVersionSkew", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("no newline"), []byte("wrong-magic v1\n{}")} {
		if _, err := Decode(b); err == nil {
			t.Fatalf("Decode(%q) succeeded, want error", b)
		}
	}
}

func TestMemStore(t *testing.T) {
	m := NewMem()
	if _, _, err := m.LoadChain(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store: got %v, want ErrNoSnapshot", err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := m.SaveSnapshot(testSnapshot(seq)); err != nil {
			t.Fatal(err)
		}
	}
	got, chain, err := m.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || len(chain) != 0 {
		t.Fatalf("latest seq = %d with %d deltas, want 3 with none", got.Seq, len(chain))
	}
	if err := m.AppendEntry(Entry{Kind: "day", Period: 1, Day: 0}); err != nil {
		t.Fatal(err)
	}
	es, err := m.Entries()
	if err != nil || len(es) != 1 || es[0].Kind != "day" {
		t.Fatalf("entries = %v, %v", es, err)
	}
}

func TestFileStoreRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for seq := uint64(1); seq <= 4; seq++ {
		n, err := f.SaveSnapshot(testSnapshot(seq))
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatalf("snapshot size = %d", n)
		}
	}
	got, chain, err := f.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 4 || len(chain) != 0 {
		t.Fatalf("latest seq = %d with %d deltas, want 4 with none", got.Seq, len(chain))
	}
	seqs, err := f.snapshotSeqs()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != keepSnapshots {
		t.Fatalf("kept %d snapshots (%v), want %d", len(seqs), seqs, keepSnapshots)
	}
}

func TestFileStoreFallsBackPastCorruptLatest(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := f.SaveSnapshot(testSnapshot(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash that tore the newest snapshot mid-write.
	latest := filepath.Join(dir, snapshotName(2))
	if err := os.WriteFile(latest, []byte(Magic+" v1\n{\"trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 {
		t.Fatalf("fallback seq = %d, want 1", got.Seq)
	}
}

func TestFileStoreVersionSkewIsTerminal(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.SaveSnapshot(testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	b, _ := Encode(testSnapshot(2))
	skewed := bytes.Replace(b, []byte(" v1\n"), []byte(" v99\n"), 1)
	if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.LoadChain(); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("got %v, want ErrVersionSkew (no silent fallback across versions)", err)
	}
}

func TestFileStoreCommitLogToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		if err := f.AppendEntry(Entry{Kind: "day", Period: 1, Day: day, Digest: "aa"}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	// Tear the final line as a crash mid-append would.
	logPath := filepath.Join(dir, commitLogName)
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(b), "\n"), "\n")
	torn := strings.Join(lines[:len(lines)-1], "") + lines[len(lines)-1][:5]
	if err := os.WriteFile(logPath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	es, err := f2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 || es[1].Day != 1 {
		t.Fatalf("readable prefix = %v, want the 2 intact entries", es)
	}
	// And the log accepts appends again after reopening.
	if err := f2.AppendEntry(Entry{Kind: "stop", Period: 1, Day: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreEmptyDir(t *testing.T) {
	f, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := f.LoadChain(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
	es, err := f.Entries()
	if err != nil || es != nil {
		t.Fatalf("entries on empty dir = %v, %v", es, err)
	}
}
