package core_test

// Byte-rule compaction and chain replay: with CompactEvery 0 a delta-mode
// study writes a full snapshot once the deltas since the last full add up
// to that full's encoded size. These tests pin the rule against the count
// rule, prove that killed runs reproduce the uninterrupted run's files,
// and replay chains in the form earlier revisions wrote.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
func tipBytes(t *testing.T, st store.DeltaStore) []byte {
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

// runServiceDir runs a service-mode study against a file store in dir in
// legs stopping at the absolute days in cuts, each leg with freshly built
// services, and returns the store (closed by the test's cleanup).
func runServiceDir(t *testing.T, dir string, compactEvery int, cuts []int) *store.File {
	t.Helper()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	ck := deltaCkpt(fs, compactEvery)
	prev := 0
	for _, cut := range cuts {
		deltaLeg(t, streamCfg(1, false), ck, prev, cut)
		prev = cut
	}
	deltaLeg(t, streamCfg(1, false), ck, prev, 0)
	return fs
}

// TestDeltaByteCompaction: a default-config delta-mode run (CompactEvery
// 0) compacts by bytes and writes fewer fulls than the same run at
// CompactEvery 8. Runs killed just before and just after a byte-triggered
// compaction — and one whose commit log lost the entry of the cut it
// stopped at, so resume re-encodes the chain to recover the byte count —
// end with the uninterrupted run's checkpoint files and tip, and that
// tip is the full-mode run's final snapshot byte for byte.
func TestDeltaByteCompaction(t *testing.T) {
	t.Parallel()
	ref := runServiceDir(t, t.TempDir(), 0, nil)
	byCount := runServiceDir(t, t.TempDir(), 8, nil)
	fulls, countFulls := fullSeqs(t, ref), fullSeqs(t, byCount)
	t.Logf("byte rule wrote fulls at %v; CompactEvery 8 wrote %d", fulls, len(countFulls))
	if len(fulls) < 2 {
		t.Fatalf("byte rule wrote fulls at %v; the run never compacted, so the kills below prove nothing", fulls)
	}
	if len(fulls) >= len(countFulls) {
		t.Fatalf("byte rule wrote %d fulls, CompactEvery 8 wrote %d; want fewer", len(fulls), len(countFulls))
	}
	want := ckptFiles(t, ref.Dir())
	wantTip := tipBytes(t, ref)

	// The full-mode run's final snapshot is the tip the chain rebuilds.
	mem := store.NewMem()
	full := newDurableStudyCkpt(t, streamCfg(1, false), &core.CheckpointConfig{Store: mem, EveryDays: 1})
	if err := full.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	full.Close()
	snap, err := mem.LoadSnapshot()
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

	c := int(fulls[len(fulls)/2]) // seq == absolute day at EveryDays 1
	for _, tc := range []struct {
		name    string
		stop    int
		dropLog bool
	}{
		{"before-compaction", c - 1, false},
		{"after-compaction", c, false},
		{"log-lost-before-compaction", c - 1, true},
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
			ck := deltaCkpt(fs, 0)
			deltaLeg(t, streamCfg(1, false), ck, 0, tc.stop)
			if tc.dropLog {
				dropLastCutEntry(t, filepath.Join(dir, "commits.log"))
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

// dropLastCutEntry removes the newest snapshot or delta entry from a
// commit log, as a kill between the file's rename and its log append
// would have left it.
func dropLastCutEntry(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		var e store.Entry
		if json.Unmarshal([]byte(lines[i]), &e) == nil && (e.Kind == store.KindDelta || e.Kind == store.KindSnapshot) {
			lines = append(lines[:i], lines[i+1:]...)
			if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("commit log holds no cut entry")
}

// TestDeltaReplaysParentFormatChain: a chain in the form earlier
// revisions wrote — every touched monitor history upserted whole, every
// service carried whole in every delta — replays to the same tip, byte
// for byte, as the chain this revision writes.
func TestDeltaReplaysParentFormatChain(t *testing.T) {
	t.Parallel()
	mem := store.NewMem()
	s := newDurableStudyCkpt(t, streamCfg(1, false), deltaCkpt(mem, 1000))
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	base, deltas, err := mem.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) < 90 {
		t.Fatalf("chain holds %d deltas, want the whole run", len(deltas))
	}
	old := make([]*store.Delta, len(deltas))
	state := base
	sawAppends := false
	for i, d := range deltas {
		if state, err = core.ApplyDeltaChain(state, deltas[i:i+1]); err != nil {
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
		old[i] = &od
	}
	if !sawAppends {
		t.Fatal("no monitor patch carried appends; the conversion proved nothing")
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
		t.Fatal("parent-format chain replayed to a different tip")
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
