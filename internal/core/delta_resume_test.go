package core_test

// Delta-mode kill-and-resume suite: the incremental-checkpoint study must
// give the same bit-identical-resume guarantee as full mode — kill at any
// day boundary, mid-delta write, between a delta and its commit-log
// append, or mid-compaction, and the resumed completion matches an
// uninterrupted run exactly. The file-backed tests damage the state dir
// the way real crashes do (torn tails, missing renames, stray temp
// files); recovery rolls back to the newest decodable cut and
// determinism re-derives the lost days.

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"doxmeter/internal/core"
	"doxmeter/internal/store"
)

// deltaCkpt is the checkpoint policy the delta suite runs under: a cut
// every study day, a compaction once the deltas outweigh the last full.
func deltaCkpt(st store.Store) *core.CheckpointConfig {
	return &core.CheckpointConfig{Store: st, Mode: core.CheckpointDelta}
}

// absDays converts a ResumeInfo position into the absolute count of
// fully committed study days (what stopAfter counts).
func absDays(info core.ResumeInfo) int {
	if !info.Resumed {
		return 0
	}
	if info.Period == 1 {
		return info.Day + 1
	}
	return p1Days + info.Day + 1
}

// TestDeltaResumeBitIdentical is the delta-mode core guarantee: kill a
// delta-checkpointed study at arbitrary day boundaries — including the
// period boundary — and the resumed completion is bit-identical to an
// uninterrupted run, against both store backends.
func TestDeltaResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name        string
		parallelism int
		mild        bool
		file        bool
		cuts        []int
	}{
		{"par1-mem", 1, false, false, []int{10, p1Days, 60}},
		{"par0-faults-file", 0, true, true, []int{25, 70}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := getBaseline(t, tc.mild)
			var st store.Store = store.NewMem()
			if tc.file {
				fs, err := store.OpenFile(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				st = fs
			}
			s := runChainCkpt(t, resumeCfg(tc.parallelism, tc.mild), deltaCkpt(st), tc.cuts)
			compareStudies(t, base.s, s, base.tables, renderAnalyses(s))
		})
	}
}

// deltaLeg resumes one leg of a damaged chain, asserting the resume
// landed exactly on the newest decodable cut, then stops at the absolute
// day stopAt (or runs to completion when stopAt <= 0, returning the
// study).
func deltaLeg(t *testing.T, cfg core.StudyConfig, ck *core.CheckpointConfig, wantResumeAbs, stopAt int) *core.Study {
	t.Helper()
	s := newDurableStudyCkpt(t, cfg, ck)
	info, err := s.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if got := absDays(info); got != wantResumeAbs {
		t.Fatalf("resumed at absolute day %d, want %d (info %+v)", got, wantResumeAbs, info)
	}
	if stopAt <= 0 {
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return s
	}
	s.Cfg.Progress = &stopAfter{s: s, days: stopAt - wantResumeAbs}
	if err := s.Run(context.Background()); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("leg to day %d: Run = %v, want ErrStopped", stopAt, err)
	}
	s.Close()
	return nil
}

// TestDeltaKillAnywhereDamage simulates the crashes the atomic-write
// discipline defends against, each between two legs of one study:
//
//   - a torn delta tail (power cut mid delta write, after the rename but
//     before the data blocks hit disk),
//   - a missing newest delta plus a stray temp file (crash before the
//     rename published it; the cut's commit-log entry never happened),
//   - a torn compaction full (crash mid full-snapshot write), which must
//     fall back to the previous full and its retained deltas.
//
// Every resume rolls back only to the newest decodable cut, and the
// completed study is bit-identical to an uninterrupted run. Leg 1's cuts
// are rewritten with flate bodies, as a run of an earlier revision with
// compression on left them, so leg 2 resumes over a flate chain whose
// tip is a torn flate stream.
func TestDeltaKillAnywhereDamage(t *testing.T) {
	t.Parallel()
	base := getBaseline(t, false)
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cfg := resumeCfg(1, false)
	ck := deltaCkpt(fs)

	ckptPath := func(prefix string, seq int) string {
		return filepath.Join(dir, fmt.Sprintf("%s%08d.ckpt", prefix, seq))
	}
	truncate := func(seq int, prefix string) {
		path := ckptPath(prefix, seq)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	}

	// Leg 1: fresh start, stop at day 18 (seq == absolute day: one cut
	// per day). Deflate its cuts, then the torn tail: truncate the newest
	// delta.
	deltaLeg(t, cfg, ck, 0, 18)
	cuts, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(cuts) == 0 {
		t.Fatalf("leg 1 left cuts %v (%v)", cuts, err)
	}
	for _, path := range cuts {
		deflateCut(t, path)
	}
	truncate(18, "delta-")

	// Leg 2: resume must land on day 17. Stop at 40, then simulate a
	// crash before delta 40's rename: the final file never appeared,
	// only a temp and the day's commit-log entry.
	deltaLeg(t, cfg, ck, 17, 40)
	if err := os.Remove(ckptPath("delta-", 40)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot-287351.tmp"), []byte("torn temp"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Leg 3: resume lands on day 39; the stray temp is ignored. Stop at
	// 55 and tear the newest compaction full mid-write. The byte rule
	// placed it; the commit log says where.
	deltaLeg(t, cfg, ck, 39, 55)
	fulls := fullSeqs(t, fs)
	if len(fulls) < 2 {
		t.Fatalf("fulls by day 55 at %v; need a compaction full with a predecessor to tear", fulls)
	}
	torn := int(fulls[len(fulls)-1])
	truncate(torn, "snapshot-")

	// Final leg: the chain walks the previous full and its deltas,
	// resuming at the cut below the torn full, and runs to completion.
	s := deltaLeg(t, cfg, ck, torn-1, 0)
	compareStudies(t, base.s, s, base.tables, renderAnalyses(s))
}

// deflateCut rewrites a plain checkpoint file with a flate body, byte for
// byte as the compressing writer of earlier revisions wrote it: the
// header line gains a "flate" token and the body is deflated at
// BestSpeed (flate's output does not depend on how its input is split
// into writes).
func deflateCut(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, body, ok := bytes.Cut(b, []byte("\n"))
	if !ok {
		t.Fatalf("%s: no header line", path)
	}
	var out bytes.Buffer
	out.Write(header)
	out.WriteString(" flate\n")
	fw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaFileStoreDurableRun runs a complete uninterrupted delta-mode
// study against the file store, proves delta-durable ≡ non-durable,
// checks both delta files and compaction fulls reached disk, and extends
// the §3.3 plant scan to every delta and compaction byte: raw PII must
// never appear in any incremental cut either.
func TestDeltaFileStoreDurableRun(t *testing.T) {
	t.Parallel()
	base := getBaseline(t, false)
	dir := t.TempDir()
	fs, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newDurableStudyCkpt(t, resumeCfg(1, false), deltaCkpt(fs))
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	compareStudies(t, base.s, s, base.tables, renderAnalyses(s))
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fulls, deltas := 0, 0
	for _, de := range names {
		switch {
		case len(de.Name()) > 6 && de.Name()[:6] == "delta-":
			deltas++
		case len(de.Name()) > 9 && de.Name()[:9] == "snapshot-":
			fulls++
		}
	}
	if deltas == 0 {
		t.Fatal("delta-mode run left no delta files on disk")
	}
	if fulls < 2 {
		t.Fatalf("delta-mode run retained %d full snapshots, want 2 (compaction + retention)", fulls)
	}
	scanStateDirForPlants(t, dir, s)
}

// TestCheckpointModeSwitchMidChain: a state dir written in one mode is a
// valid resume source for the other. Delta-mode legs resume full-mode
// dirs (empty chain) and full-mode legs resume delta dirs (chain replay)
// because the tip reconstruction is mode-independent.
func TestCheckpointModeSwitchMidChain(t *testing.T) {
	t.Parallel()
	base := getBaseline(t, false)
	mem := store.NewMem()
	cfg := resumeCfg(1, false)
	full := &core.CheckpointConfig{Store: mem}

	deltaLeg(t, cfg, deltaCkpt(mem), 0, 20) // delta-mode leg
	deltaLeg(t, cfg, full, 20, 50)          // full-mode leg resumes the delta chain
	s := deltaLeg(t, cfg, deltaCkpt(mem), 50, 0)
	compareStudies(t, base.s, s, base.tables, renderAnalyses(s))
}

// TestDeltaConfigValidation pins the delta-mode config contract.
func TestDeltaConfigValidation(t *testing.T) {
	t.Parallel()
	valid := resumeCfg(1, false)
	valid.Checkpoint = deltaCkpt(store.NewMem())
	if err := valid.Validate(); err != nil {
		t.Errorf("delta mode on Mem rejected: %v", err)
	}

	cases := []struct {
		name string
		ck   *core.CheckpointConfig
	}{
		{"unknown mode", &core.CheckpointConfig{Store: store.NewMem(), Mode: "differential"}},
	}
	for _, tc := range cases {
		cfg := resumeCfg(1, false)
		cfg.Checkpoint = tc.ck
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate = nil", tc.name)
			continue
		}
		if !errors.Is(err, core.ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
	}
}
