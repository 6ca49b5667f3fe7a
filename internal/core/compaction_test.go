package core_test

// Byte-rule compaction and chain replay: a delta-mode study writes a full
// snapshot once the deltas since the last full add up to that full's
// encoded size. These tests pin the rule from the commit log's sizes,
// prove that killed runs reproduce the uninterrupted run's files whatever
// the log lost, and replay chains in the form earlier revisions wrote.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"doxmeter/internal/core"
	"doxmeter/internal/monitor"
	"doxmeter/internal/store"
)

// ckptFiles reads every checkpoint file of a state dir, by name.
func ckptFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".ckpt") {
			b, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[de.Name()] = b
		}
	}
	return out
}

// tipBytes rebuilds a state dir's newest cut from its chain and encodes it.
func tipBytes(t *testing.T, st store.Store) []byte {
	t.Helper()
	base, deltas, err := st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	tip, err := core.ApplyDeltaChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Encode(tip)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fullSeqs lists the seqs of the full snapshots a commit log records.
func fullSeqs(t *testing.T, st store.Store) []uint64 {
	t.Helper()
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.Kind == store.KindSnapshot {
			seqs = append(seqs, e.Seq)
		}
	}
	return seqs
}

// cutsAfter lists the cuts a commit log records above seq, in log order,
// as "kind seq bytes".
func cutsAfter(t *testing.T, st store.Store, seq uint64) []string {
	t.Helper()
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var cuts []string
	for _, e := range entries {
		if (e.Kind == store.KindSnapshot || e.Kind == store.KindDelta) && e.Seq > seq {
			cuts = append(cuts, fmt.Sprintf("%s %d %d", e.Kind, e.Seq, e.Bytes))
		}
	}
	return cuts
}

// checkByteRule asserts the byte compaction rule from the sizes a commit
// log records for an uninterrupted run's cuts: one cut per study day, the
// first a full, and after it a full exactly when the deltas since the
// last full add up to at least that full's bytes.
func checkByteRule(t *testing.T, st store.Store) {
	t.Helper()
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	cuts, full, sum := 0, 0, 0
	for _, e := range entries {
		switch e.Kind {
		case store.KindSnapshot:
			if cuts > 0 && sum < full {
				t.Fatalf("full %d follows %d delta bytes, under its predecessor's %d", e.Seq, sum, full)
			}
			full, sum = e.Bytes, 0
		case store.KindDelta:
			if cuts == 0 || sum >= full {
				t.Fatalf("delta %d follows %d delta bytes; the last full holds %d", e.Seq, sum, full)
			}
			sum += e.Bytes
		default:
			continue
		}
		if cuts++; e.Seq != uint64(cuts) || e.Bytes <= 0 {
			t.Fatalf("cut entry %d is %+v", cuts, e)
		}
	}
	if cuts != totalDays {
		t.Fatalf("commit log records %d cuts, want one per study day (%d)", cuts, totalDays)
	}
}

// TestDeltaByteCompaction: a delta-mode run compacts by bytes, as its
// commit log's sizes show. Runs killed just before and just after a
// compaction, one whose commit log lost the entry of the cut it stopped
// at and one whose log lost every cut entry end with the uninterrupted
// run's checkpoint files and tip: resume sizes the chain from the cuts
// it loads, never from the log. That tip is the full-mode run's final
// snapshot byte for byte.
func TestDeltaByteCompaction(t *testing.T) {
	t.Parallel()
	ref, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	deltaLeg(t, streamCfg(1, false), deltaCkpt(ref), 0, 0)
	checkByteRule(t, ref)
	fulls := fullSeqs(t, ref)
	t.Logf("byte rule wrote fulls at %v", fulls)
	if len(fulls) < 3 {
		t.Fatalf("byte rule wrote fulls at %v; the kills below need a compaction past the first", fulls)
	}
	want := ckptFiles(t, ref.Dir())
	wantTip := tipBytes(t, ref)
	wantCuts := cutsAfter(t, ref, 0)

	// The full-mode run's final snapshot is the tip the chain rebuilds.
	mem := store.NewMem()
	full := newDurableStudyCkpt(t, streamCfg(1, false), &core.CheckpointConfig{Store: mem})
	if err := full.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	full.Close()
	snap, _, err := mem.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	fullTip, err := store.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantTip, fullTip) {
		t.Fatal("delta-mode tip differs from the full-mode final snapshot")
	}

	c := int(fulls[len(fulls)/2]) // seq == absolute day: one cut per day
	for _, tc := range []struct {
		name string
		stop int
		// damage edits the commit log between the legs.
		damage func(t *testing.T, path string)
	}{
		{"before-compaction", c - 1, nil},
		{"after-compaction", c, nil},
		{"log-lost-before-compaction", c - 1, dropLastCutEntry},
		{"log-stripped-before-compaction", c - 1, dropCutEntries},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			fs, err := store.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			ck := deltaCkpt(fs)
			deltaLeg(t, streamCfg(1, false), ck, 0, tc.stop)
			if tc.damage != nil {
				tc.damage(t, filepath.Join(dir, "commits.log"))
			}
			deltaLeg(t, streamCfg(1, false), ck, tc.stop, 0)
			got := ckptFiles(t, dir)
			if len(got) != len(want) {
				t.Fatalf("file set %v, want %v", sortedNames(got), sortedNames(want))
			}
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Fatalf("%s differs from the uninterrupted run's (file set %v)", name, sortedNames(got))
				}
			}
			if !bytes.Equal(tipBytes(t, fs), wantTip) {
				t.Fatal("tip differs from the uninterrupted run's")
			}
			// Retention keeps only the last two fulls, so the files alone
			// miss a schedule that diverged and re-converged; the cuts the
			// resumed leg logged must be the uninterrupted run's.
			if got := cutsAfter(t, fs, uint64(tc.stop)); !slices.Equal(got, wantCuts[tc.stop:]) {
				t.Fatalf("resumed leg cut %v, want %v", got, wantCuts[tc.stop:])
			}
		})
	}
}

func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// isCutEntry reports whether a commit-log line records a snapshot or a
// delta.
func isCutEntry(line string) bool {
	var e store.Entry
	return json.Unmarshal([]byte(line), &e) == nil && (e.Kind == store.KindDelta || e.Kind == store.KindSnapshot)
}

// dropLastCutEntry removes the newest snapshot or delta entry from a
// commit log, as a kill between the file's rename and its log append
// would have left it.
func dropLastCutEntry(t *testing.T, path string) {
	t.Helper()
	lines := logLines(t, path)
	for i := len(lines) - 1; i >= 0; i-- {
		if isCutEntry(lines[i]) {
			writeLogLines(t, path, append(lines[:i], lines[i+1:]...))
			return
		}
	}
	t.Fatal("commit log holds no cut entry")
}

// dropCutEntries removes every snapshot and delta entry from a commit
// log, keeping its day and lifecycle entries.
func dropCutEntries(t *testing.T, path string) {
	t.Helper()
	lines := logLines(t, path)
	kept := lines[:0]
	for _, l := range lines {
		if !isCutEntry(l) {
			kept = append(kept, l)
		}
	}
	if len(kept) == len(lines) {
		t.Fatal("commit log holds no cut entry")
	}
	writeLogLines(t, path, kept)
}

func logLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.SplitAfter(string(b), "\n")
}

func writeLogLines(t *testing.T, path string, lines []string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// cutRecorder is a Mem store that also keeps every cut a study saves, so
// a test can replay each chain segment — a full and the deltas above it —
// after retention has pruned the older ones.
type cutRecorder struct {
	*store.Mem
	fulls  []*store.Snapshot
	deltas []*store.Delta
}

func (r *cutRecorder) SaveSnapshot(snap *store.Snapshot) (int, error) {
	r.fulls = append(r.fulls, snap)
	return r.Mem.SaveSnapshot(snap)
}

func (r *cutRecorder) SaveDelta(d *store.Delta) (int, error) {
	r.deltas = append(r.deltas, d)
	return r.Mem.SaveDelta(d)
}

// TestDeltaReplaysParentFormatChain: chains in the form earlier
// revisions wrote — every touched monitor history upserted whole, every
// service carried whole in every delta — replay to the same tips, byte
// for byte, as the chains this revision writes. Every segment of a whole
// run is replayed: each full the byte rule wrote with the deltas above it.
func TestDeltaReplaysParentFormatChain(t *testing.T) {
	t.Parallel()
	rec := &cutRecorder{Mem: store.NewMem()}
	s := newDurableStudyCkpt(t, streamCfg(1, false), deltaCkpt(rec))
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(rec.fulls) < 2 || len(rec.fulls)+len(rec.deltas) != totalDays {
		t.Fatalf("run cut %d fulls and %d deltas, want %d cuts and a compaction", len(rec.fulls), len(rec.deltas), totalDays)
	}
	sawAppends := false
	for i, base := range rec.fulls {
		var deltas []*store.Delta
		for _, d := range rec.deltas {
			if d.Seq > base.Seq && (i+1 == len(rec.fulls) || d.Seq < rec.fulls[i+1].Seq) {
				deltas = append(deltas, d)
			}
		}
		old := make([]*store.Delta, len(deltas))
		state := base
		for j, d := range deltas {
			var err error
			if state, err = core.ApplyDeltaChain(state, deltas[j:j+1]); err != nil {
				t.Fatal(err)
			}
			od := *d
			od.Components = map[string]store.ComponentDelta{}
			for key, cd := range d.Components {
				switch {
				case strings.HasPrefix(key, "service/"):
					cd = store.ComponentDelta{Op: store.OpFull, Payload: state.Components[key]}
				case key == "monitor" && cd.Op == store.OpPatch:
					cd.Payload, sawAppends = wholeUpserts(t, cd.Payload, state.Components[key], sawAppends)
				}
				od.Components[key] = cd
			}
			old[j] = &od
		}
		want, err := core.ApplyDeltaChain(base, deltas)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.ApplyDeltaChain(base, old)
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := store.Encode(want)
		gb, _ := store.Encode(got)
		if !bytes.Equal(wb, gb) {
			t.Fatalf("parent-format chain of %d deltas above full %d replayed to a different tip", len(deltas), base.Seq)
		}
	}
	if !sawAppends {
		t.Fatal("no monitor patch carried appends; the conversion proved nothing")
	}
}

// wholeUpserts rewrites a monitor patch so every history it touches is
// upserted whole, taken from the state at its cut.
func wholeUpserts(t *testing.T, patch, state []byte, saw bool) ([]byte, bool) {
	t.Helper()
	var d monitor.Delta
	var st monitor.State
	if err := json.Unmarshal(patch, &d); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(state, &st); err != nil {
		t.Fatal(err)
	}
	// The monitor's account key: control accounts by numeric ID.
	key := func(hs monitor.HistoryState) string {
		if hs.Control && hs.NumericID > 0 {
			return fmt.Sprintf("igid:%d", hs.NumericID)
		}
		return hs.Network + ":" + hs.Username
	}
	touched := map[string]bool{}
	for _, hs := range d.Upserts {
		touched[key(hs)] = true
	}
	for _, a := range d.Appends {
		touched[a.Key] = true
		saw = true
	}
	old := monitor.Delta{Requests: d.Requests}
	for _, hs := range st.Histories { // sorted by account key
		if touched[key(hs)] {
			old.Upserts = append(old.Upserts, hs)
		}
	}
	b, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	return b, saw
}
