package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"doxmeter/internal/dedup"
)

// FuzzDeltaCodecRoundTrip is the differential fuzz harness for the
// incremental-checkpoint codec. Two properties, both checked on every
// input:
//
//  1. Codec robustness: DecodeDelta never panics on arbitrary bytes
//     (torn tails, truncated flate streams, skewed headers), and any
//     input it accepts re-encodes to a stable fixpoint — encode∘decode
//     is the identity on encoded bytes.
//
//  2. Delta ≡ full, byte for byte: the input drives a live journaling
//     provider (the deduper — pure, in-memory, every mutation class:
//     index adds, stats-only duplicate hits) through checks and cuts.
//     Each cut's delta crosses the real codec — its plain encoding, or
//     the flate-bodied form earlier revisions could write, must decode
//     to the same delta — and applying it to the previous cut's state
//     must marshal byte-identically to the full snapshot at that cut.
func FuzzDeltaCodecRoundTrip(f *testing.F) {
	seed := testDelta(7)
	plain, err := EncodeDelta(seed)
	if err != nil {
		f.Fatal(err)
	}
	comp := flateDelta(f, seed)
	f.Add(plain)
	f.Add(plain[:len(plain)/2]) // torn tail: body cut mid-JSON
	f.Add(plain[:len(plain)-1]) // torn tail: final byte lost
	f.Add(append([]byte(nil), comp...))
	f.Add(append([]byte(nil), comp[:len(comp)*2/3]...)) // torn flate stream
	f.Add([]byte("doxmeter-delta v1\n"))                // header only
	f.Add([]byte("doxmeter-delta v99\n{}"))             // version skew
	f.Add([]byte("doxmeter-delta v1 zstd\n{}"))         // unknown encoding
	f.Add([]byte{})

	f.Fuzz(deltaCodecRoundTripBody)
}

func deltaCodecRoundTripBody(t *testing.T, data []byte) {
	prop1(t, data)
	// Bound the differential op budget tightly: every cut marshals the
	// whole snapshot, and a multi-millisecond exec makes the engine's
	// coverage-minimization passes (60s budget each) eat the whole
	// smoke run. 64 ops still cover adds, duplicates, and plain and
	// flate-bodied cuts.
	if len(data) > 64 {
		data = data[:64]
	}
	prop2(t, data)
}

// prop1: decode anything without panicking; accepted inputs re-encode
// to a fixpoint.
func prop1(t *testing.T, data []byte) {
	if d, err := DecodeDelta(data); err == nil {
		b1, err := EncodeDelta(d)
		if err != nil {
			t.Fatalf("re-encode of accepted input: %v", err)
		}
		d2, err := DecodeDelta(b1)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		b2, err := EncodeDelta(d2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("encode∘decode is not a fixpoint")
		}
	}
}

func prop2(t *testing.T, data []byte) {
	{
		// Property 2: delta-encode → decode → apply equals the full
		// snapshot, byte for byte, under an input-derived op sequence.
		marshal := func(v any) []byte {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		dd := dedup.New()
		dd.SetDeltaJournal()
		var base dedup.State
		if err := json.Unmarshal(marshal(dd.Snapshot()), &base); err != nil {
			t.Fatal(err)
		}
		var seq uint64 = 1
		cut := func(compress bool) {
			seq++
			delta, _ := dd.CutDelta()
			want := marshal(dd.Snapshot())
			sd := &Delta{
				Seq: seq, BaseSeq: seq - 1,
				Components: map[string]ComponentDelta{
					"dedup": {Op: OpPatch, Payload: marshal(delta)},
				},
			}
			b, err := EncodeDelta(sd)
			if err != nil {
				t.Fatal(err)
			}
			if compress {
				b = flateDelta(t, sd)
			}
			dec, err := DecodeDelta(b)
			if err != nil {
				t.Fatalf("decode of live delta (compress=%v): %v", compress, err)
			}
			if dec.Seq != seq || dec.BaseSeq != seq-1 {
				t.Fatalf("chain linkage lost: %d←%d", dec.Seq, dec.BaseSeq)
			}
			var applied dedup.Delta
			if err := json.Unmarshal(dec.Components["dedup"].Payload, &applied); err != nil {
				t.Fatal(err)
			}
			applied.Apply(&base)
			if got := marshal(base); !bytes.Equal(got, want) {
				t.Fatalf("delta-applied state diverged from full snapshot:\n%s\nvs\n%s", got, want)
			}
			if err := json.Unmarshal(want, &base); err != nil {
				t.Fatal(err)
			}
		}
		var bodies []string
		for i, b := range data {
			switch b % 8 {
			case 7:
				cut(b%16 >= 8)
			case 6:
				if len(bodies) > 0 {
					// Exact duplicate: stats move, no index adds.
					dd.Check(fmt.Sprintf("s/dup%d", i), bodies[int(b)%len(bodies)], "")
					continue
				}
				fallthrough
			default:
				body := fmt.Sprintf("body %d %d", b, i)
				bodies = append(bodies, body)
				dd.Check(fmt.Sprintf("s/%d", i), body, fmt.Sprintf("k%d", b%5))
			}
		}
		cut(false)
	}
}

// FuzzDecodeSnapshot: DecodeSnapshotFrom never panics on arbitrary bytes
// (torn tails, truncated flate streams, skewed headers), and any snapshot
// it accepts round-trips through EncodeSnapshotTo: re-encoded and decoded
// again, it encodes to the same bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	var plain bytes.Buffer
	if _, err := EncodeSnapshotTo(&plain, testSnapshot(7)); err != nil {
		f.Fatal(err)
	}
	p, c := plain.Bytes(), flateSnapshot(f, testSnapshot(7))
	f.Add(p)
	f.Add(p[:len(p)/2]) // torn tail: body cut mid-JSON
	f.Add(c)
	f.Add(c[:len(c)*2/3]) // torn flate stream
	f.Add([]byte("doxmeter-snapshot v1\n{}"))
	f.Add([]byte("doxmeter-snapshot v99\n{}")) // version skew
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshotFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		encode := func(s *Snapshot) []byte {
			var b bytes.Buffer
			if _, err := EncodeSnapshotTo(&b, s); err != nil {
				t.Fatalf("encode of accepted snapshot: %v", err)
			}
			return b.Bytes()
		}
		want := encode(snap)
		again, err := DecodeSnapshotFrom(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if got := encode(again); !bytes.Equal(got, want) {
			t.Fatalf("snapshot did not round-trip:\n%s\nvs\n%s", got, want)
		}
	})
}

// FuzzFileEntries feeds arbitrary bytes to File.Entries as a commit log.
// Entries must not panic or fail on a readable log, and must keep its
// torn-tail tolerance: the entries it accepted, written back as a clean
// log followed by one more entry cut short by a crash, read back
// unchanged, the torn line dropped.
func FuzzFileEntries(f *testing.F) {
	var log bytes.Buffer
	for day := 0; day < 3; day++ {
		b, err := json.Marshal(Entry{Kind: KindDay, Period: 1, Day: day, Digest: "aa"})
		if err != nil {
			f.Fatal(err)
		}
		log.Write(b)
		log.WriteByte('\n')
	}
	l := log.Bytes()
	f.Add(l, uint16(0))
	f.Add(l[:len(l)-7], uint16(9)) // torn final line
	f.Add([]byte("\n\n{}\nnot json\n"), uint16(3))
	f.Add([]byte{}, uint16(1))

	tail, err := json.Marshal(Entry{Kind: KindDay, Seq: 9, Period: 2, Day: 4, Digest: "bb"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		dir := t.TempDir()
		path := filepath.Join(dir, commitLogName)
		st, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		read := func(b []byte) []Entry {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			es, err := st.Entries()
			if err != nil {
				t.Fatalf("Entries over a readable log: %v", err)
			}
			return es
		}
		got := read(data)

		var clean bytes.Buffer
		for _, e := range got {
			b, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("re-encode of accepted entry %+v: %v", e, err)
			}
			clean.Write(b)
			clean.WriteByte('\n')
		}
		want := clean.String()
		// Any proper prefix of an entry line is invalid JSON.
		clean.Write(tail[:int(cut)%len(tail)])
		var back bytes.Buffer
		for _, e := range read(clean.Bytes()) {
			b, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			back.Write(b)
			back.WriteByte('\n')
		}
		if back.String() != want {
			t.Fatalf("torn-tail log read back as\n%s\nwant\n%s", back.String(), want)
		}
	})
}
