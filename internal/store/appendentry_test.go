package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestAppendEntryBytesIdentical pins the pooled-encoder append path to the
// exact on-disk bytes the json.Marshal-per-entry formulation produced:
// one compact JSON object per line, Marshal's HTML escaping, trailing
// newline. Resume parses this log, so the encoding is a compatibility
// surface, not an implementation detail.
func TestAppendEntryBytesIdentical(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := []Entry{
		{Kind: KindDay, Period: 1, Day: 3, VTime: time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
			Collected: 120, Flagged: 7, Doxes: 5, Digest: "ab12"},
		{Kind: KindSnapshot, Seq: 9, VTime: time.Date(2016, 5, 2, 12, 30, 0, 0, time.UTC), Bytes: 4096},
		{Kind: KindDelta, Seq: 10, Base: 9, VTime: time.Date(2016, 5, 3, 0, 0, 0, 0, time.UTC)},
		// Escaping-sensitive content: Marshal HTML-escapes <, > and &.
		{Kind: KindStop, Period: 2, Day: 4, Digest: "board/<b>&co", VTime: time.Date(2016, 5, 4, 0, 0, 0, 0, time.UTC)},
	}
	var want []byte
	for _, e := range entries {
		if err := f.AppendEntry(e); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
		want = append(want, '\n')
	}
	got, err := os.ReadFile(filepath.Join(dir, commitLogName))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("commit log bytes diverge from reference encoding:\ngot  %q\nwant %q", got, want)
	}

	// And the log still round-trips through Entries.
	back, err := f.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("Entries returned %d entries, want %d", len(back), len(entries))
	}
	for i := range back {
		if back[i] != entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, back[i], entries[i])
		}
	}
}

// TestEntriesSkipsRetiredFields: commit logs written while sharded runs
// existed hold "lease" audit lines carrying key and worker fields that
// Entry no longer has. They must still decode — unknown JSON fields are
// ignored — so the lines around them stay readable and such a state dir
// can still be resumed.
func TestEntriesSkipsRetiredFields(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	day := Entry{Kind: KindDay, Period: 1, Day: 2, VTime: time.Date(2016, 5, 3, 0, 0, 0, 0, time.UTC), Digest: "cd34"}
	if err := f.AppendEntry(day); err != nil {
		t.Fatal(err)
	}
	old := `{"kind":"lease","seq":4,"vtime":"2016-05-03T00:00:00Z","key":"poll/pastebin","worker":2}` + "\n"
	lf, err := os.OpenFile(filepath.Join(dir, commitLogName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.WriteString(old); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	next := day
	next.Day = 3
	if err := f.AppendEntry(next); err != nil {
		t.Fatal(err)
	}

	got, err := f.Entries()
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{day, {Kind: "lease", Seq: 4, VTime: day.VTime}, next}
	if len(got) != len(want) {
		t.Fatalf("Entries returned %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
