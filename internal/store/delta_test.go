package store

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Compile-time checks: both shipped backends implement Store.
var (
	_ Store = (*Mem)(nil)
	_ Store = (*File)(nil)
)

func testDelta(seq uint64) *Delta {
	snap := testSnapshot(seq)
	return &Delta{
		Seq:     seq,
		BaseSeq: seq - 1,
		Meta:    snap.Meta,
		Components: map[string]ComponentDelta{
			"core":  {Op: OpPatch, Payload: json.RawMessage(`{"collected":5}`)},
			"dedup": {Op: OpRef},
		},
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	d := testDelta(8)
	b, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != d.Seq || got.BaseSeq != d.BaseSeq || got.Meta != d.Meta {
		t.Fatalf("round trip changed delta: %+v vs %+v", got, d)
	}
	if got.Components["dedup"].Op != OpRef || got.Components["core"].Op != OpPatch {
		t.Fatalf("round trip changed component ops: %+v", got.Components)
	}
	b2, err := EncodeDelta(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-encode not byte-identical:\n%q\nvs\n%q", b, b2)
	}
}

// EncoderBytes is the reference encoding of a cut: the header line, then
// the body as json.Encoder writes v, through flate at BestSpeed when
// compress is set. v must carry its Version, which the streaming writers
// fill in themselves. The compressed form is byte for byte what the
// flate writer of earlier revisions wrote (flate's output does not depend
// on how its input is split into writes), so it stands in for the
// compressed state dirs this build still reads. Exported for the external
// tests in this directory.
func EncoderBytes(t testing.TB, magic string, v any, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	header := fmt.Sprintf("%s v1\n", magic)
	if compress {
		header = fmt.Sprintf("%s v1 flate\n", magic)
	}
	buf.WriteString(header)
	body := io.Writer(&buf)
	var fw *flate.Writer
	if compress {
		fw, _ = flate.NewWriter(&buf, flate.BestSpeed)
		body = fw
	}
	if err := json.NewEncoder(body).Encode(v); err != nil {
		t.Fatal(err)
	}
	if compress {
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// flateSnapshot and flateDelta encode a cut with a flate body.
func flateSnapshot(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	cp := *snap
	cp.Version = Version
	return EncoderBytes(t, Magic, &cp, true)
}

func flateDelta(t testing.TB, d *Delta) []byte {
	t.Helper()
	cp := *d
	cp.Version = DeltaVersion
	return EncoderBytes(t, DeltaMagic, &cp, true)
}

func TestDeltaCodecCompressedRoundTrip(t *testing.T) {
	d := testDelta(8)
	cb := flateDelta(t, d)
	plain, _ := EncodeDelta(d)
	if bytes.Equal(cb, plain) {
		t.Fatal("compressed encoding identical to plain")
	}
	got, err := DecodeDelta(cb)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encoding the decoded delta must match the plain encoding byte
	// for byte: compression is transparent to content.
	b2, _ := EncodeDelta(got)
	if !bytes.Equal(plain, b2) {
		t.Fatalf("compressed round trip changed content:\n%q\nvs\n%q", plain, b2)
	}

	snap := testSnapshot(9)
	gotSnap, err := Decode(flateSnapshot(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := Encode(snap)
	sb2, _ := Encode(gotSnap)
	if !bytes.Equal(sb, sb2) {
		t.Fatalf("compressed snapshot round trip changed content")
	}
}

func TestDecodeDeltaRejectsSkewAndGarbage(t *testing.T) {
	d := testDelta(3)
	b, _ := EncodeDelta(d)

	skewed := bytes.Replace(b, []byte(" v1\n"), []byte(" v99\n"), 1)
	if _, err := DecodeDelta(skewed); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("header skew: got %v, want ErrVersionSkew", err)
	}
	unknownEnc := bytes.Replace(b, []byte(" v1\n"), []byte(" v1 zstd\n"), 1)
	if _, err := DecodeDelta(unknownEnc); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("unknown encoding: got %v, want ErrVersionSkew", err)
	}
	if _, err := DecodeDelta([]byte("not a delta at all")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	if _, err := DecodeDelta(b[:len(b)/2]); err == nil {
		t.Fatal("truncated delta decoded without error")
	}
	badOp := bytes.Replace(b, []byte(`"op":"ref"`), []byte(`"op":"zap"`), 1)
	if _, err := DecodeDelta(badOp); err == nil {
		t.Fatal("unknown component op decoded without error")
	}
}

// chainStore builds full snapshot seq 1, deltas 2..4, full 5, deltas
// 6..7 in st — the shape a delta-mode study leaves behind after one
// compaction.
func chainStore(t *testing.T, st Store) {
	t.Helper()
	if _, err := st.SaveSnapshot(testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 4; seq++ {
		if _, err := st.SaveDelta(testDelta(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.SaveSnapshot(testSnapshot(5)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(6); seq <= 7; seq++ {
		if _, err := st.SaveDelta(testDelta(seq)); err != nil {
			t.Fatal(err)
		}
	}
}

func checkChain(t *testing.T, st Store, wantBase uint64, wantDeltas ...uint64) {
	t.Helper()
	snap, chain, err := st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != wantBase {
		t.Fatalf("chain base seq = %d, want %d", snap.Seq, wantBase)
	}
	var got []uint64
	for _, d := range chain {
		got = append(got, d.Seq)
	}
	if len(got) != len(wantDeltas) {
		t.Fatalf("chain deltas = %v, want %v", got, wantDeltas)
	}
	for i := range got {
		if got[i] != wantDeltas[i] {
			t.Fatalf("chain deltas = %v, want %v", got, wantDeltas)
		}
	}
}

func TestLoadChainWalksNewestFull(t *testing.T) {
	for _, st := range []Store{NewMem(), mustOpenFile(t)} {
		chainStore(t, st)
		checkChain(t, st, 5, 6, 7)
	}
}

func mustOpenFile(t *testing.T) *File {
	t.Helper()
	f, err := OpenFile(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestLoadChainEmptyStore(t *testing.T) {
	for _, st := range []Store{NewMem(), mustOpenFile(t)} {
		if _, _, err := st.LoadChain(); !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("empty store: got %v, want ErrNoSnapshot", err)
		}
	}
}

func TestFileLoadChainTornTip(t *testing.T) {
	for _, flateBodies := range []bool{false, true} {
		f := mustOpenFile(t)
		chainStore(t, f)
		if flateBodies {
			// A flate delta torn mid-stream ends the chain the same way.
			writeCut(t, f, deltaName(6), flateDelta(t, testDelta(6)))
			writeCut(t, f, deltaName(7), flateDelta(t, testDelta(7)))
		}
		// Truncate the newest delta mid-body: the chain must stop at 6.
		path := filepath.Join(f.Dir(), deltaName(7))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
			t.Fatal(err)
		}
		checkChain(t, f, 5, 6)
	}
}

func TestFileLoadChainGap(t *testing.T) {
	f := mustOpenFile(t)
	chainStore(t, f)
	if err := os.Remove(filepath.Join(f.Dir(), deltaName(6))); err != nil {
		t.Fatal(err)
	}
	// Delta 7 still exists but is unreachable across the gap.
	checkChain(t, f, 5)
}

func TestFileLoadChainFallsBackAcrossCorruptFull(t *testing.T) {
	f := mustOpenFile(t)
	chainStore(t, f)
	// Corrupt the newest full (seq 5). The walk falls back to full 1 and
	// bridges deltas 2..4; the chain stops at the corrupt full's seq
	// because no delta occupies it, so at worst that cut's days re-run.
	path := filepath.Join(f.Dir(), snapshotName(5))
	if err := os.WriteFile(path, []byte("doxmeter-checkpoint v1\n{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	checkChain(t, f, 1, 2, 3, 4)
}

func TestFileLoadChainSkewedDeltaTerminal(t *testing.T) {
	f := mustOpenFile(t)
	chainStore(t, f)
	path := filepath.Join(f.Dir(), deltaName(6))
	b, _ := os.ReadFile(path)
	b = bytes.Replace(b, []byte(" v1\n"), []byte(" v99\n"), 1)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.LoadChain(); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("skewed delta in chain: got %v, want ErrVersionSkew", err)
	}
}

func TestDeltaRetentionAnchoredToFulls(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   Store
	}{{"mem", NewMem()}, {"file", mustOpenFile(t)}} {
		t.Run(tc.name, func(t *testing.T) {
			chainStore(t, tc.st)
			// A third full at 8 retires full 1; deltas ≤ 5 go with it.
			if _, err := tc.st.SaveSnapshot(testSnapshot(8)); err != nil {
				t.Fatal(err)
			}
			if _, err := tc.st.SaveDelta(testDelta(9)); err != nil {
				t.Fatal(err)
			}
			checkChain(t, tc.st, 8, 9)
			if f, ok := tc.st.(*File); ok {
				for _, seq := range []uint64{2, 3, 4} {
					if _, err := os.Stat(filepath.Join(f.Dir(), deltaName(seq))); !os.IsNotExist(err) {
						t.Fatalf("delta %d not pruned after compaction", seq)
					}
				}
				if _, err := os.Stat(filepath.Join(f.Dir(), snapshotName(1))); !os.IsNotExist(err) {
					t.Fatal("full 1 not pruned")
				}
				// Deltas 6..7 above the oldest kept full (5) survive so the
				// fallback chain from 5 stays complete.
				for _, seq := range []uint64{6, 7} {
					if _, err := os.Stat(filepath.Join(f.Dir(), deltaName(seq))); err != nil {
						t.Fatalf("delta %d pruned but still anchored: %v", seq, err)
					}
				}
			}
		})
	}
}

// writeCut replaces one checkpoint file of f's state dir with b.
func writeCut(t *testing.T, f *File, name string, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(f.Dir(), name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileCompressedStateDirResumes reads a state dir written partly with
// flate bodies, as a run of an earlier revision with compression on
// leaves it and a later run of this build extends it: the chain walks
// flate and plain cuts alike, and each reads back as its plain encoding.
func TestFileCompressedStateDirResumes(t *testing.T) {
	f := mustOpenFile(t)
	chainStore(t, f)
	writeCut(t, f, snapshotName(5), flateSnapshot(t, testSnapshot(5)))
	writeCut(t, f, deltaName(6), flateDelta(t, testDelta(6)))
	if _, err := f.SaveDelta(testDelta(8)); err != nil {
		t.Fatal(err)
	}
	checkChain(t, f, 5, 6, 7, 8)
	snap, chain, err := f.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Encode(snap)
	want, _ := Encode(testSnapshot(5))
	if !bytes.Equal(got, want) {
		t.Fatalf("flate full read back as\n%s\nwant\n%s", got, want)
	}
	for _, d := range chain {
		got, _ := EncodeDelta(d)
		want, _ := EncodeDelta(testDelta(d.Seq))
		if !bytes.Equal(got, want) {
			t.Fatalf("delta %d read back as\n%s\nwant\n%s", d.Seq, got, want)
		}
	}
}

// TestEnvelopeEdgeCases pins the envelope writer to json.Encoder on the
// shapes a study never writes but a caller may: nil maps, nil payloads,
// keys and ops that need escaping, and an empty delta payload (omitted).
// An empty snapshot payload is not JSON; both writers refuse it.
func TestEnvelopeEdgeCases(t *testing.T) {
	encoder := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	meta := testSnapshot(3).Meta
	snaps := []*Snapshot{
		{Seq: 1, Meta: meta},
		{Seq: 2, Meta: meta, Components: map[string]json.RawMessage{}},
		{Seq: 3, Meta: meta, Components: map[string]json.RawMessage{
			"a<b>&c": json.RawMessage(`{"x":1}`), "naïve\u2028": nil, "z\"q\\": json.RawMessage(`[]`),
		}},
	}
	for _, snap := range snaps {
		cp := *snap
		cp.Version = Version
		var got bytes.Buffer
		if err := writeSnapshotBody(&got, snap); err != nil {
			t.Fatal(err)
		}
		if want := encoder(&cp); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("snapshot %d:\n%s\nwant\n%s", snap.Seq, got.Bytes(), want)
		}
	}
	deltas := []*Delta{
		{Seq: 4, BaseSeq: 3, Meta: meta},
		{Seq: 5, BaseSeq: 4, Meta: meta, Components: map[string]ComponentDelta{
			"core": {Op: OpPatch, Payload: json.RawMessage(`{"a":"\u003c"}`)},
			"b":    {Op: OpRef},
			"c":    {Op: "odd<op>", Payload: json.RawMessage{}},
		}},
	}
	for _, d := range deltas {
		cp := *d
		cp.Version = DeltaVersion
		var got bytes.Buffer
		if err := writeDeltaBody(&got, d); err != nil {
			t.Fatal(err)
		}
		if want := encoder(&cp); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("delta %d:\n%s\nwant\n%s", d.Seq, got.Bytes(), want)
		}
	}
	bad := &Snapshot{Seq: 6, Meta: meta, Components: map[string]json.RawMessage{"core": {}}}
	if _, err := Encode(bad); err == nil {
		t.Error("Encode accepted an empty component payload")
	}
}
