package store_test

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"

	"doxmeter/internal/core"
	"doxmeter/internal/feed"
	"doxmeter/internal/notify"
	"doxmeter/internal/simclock"
	"doxmeter/internal/store"
	"doxmeter/internal/stream"
	"doxmeter/internal/watchlist"
)

// encoderBytes is the reference encoding: the header line, then the body
// as json.Encoder writes v, optionally through flate.
func encoderBytes(t *testing.T, magic string, v any, compress bool) []byte {
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

// pinningStore checks every cut a study writes: the streaming encoders
// and a Codec reused across cuts, plain and compressed, must write
// exactly the reference encoding.
type pinningStore struct {
	*store.Mem
	t     *testing.T
	codec store.Codec
	cuts  int
}

func (p *pinningStore) pin(kind string, v any, magic string, stream func(io.Writer, bool) (int, error), codec func() ([]byte, error)) {
	p.t.Helper()
	p.cuts++
	for _, compress := range []bool{false, true} {
		want := encoderBytes(p.t, magic, v, compress)
		var got bytes.Buffer
		n, err := stream(&got, compress)
		if err != nil {
			p.t.Fatal(err)
		}
		if n != got.Len() || !bytes.Equal(got.Bytes(), want) {
			p.t.Fatalf("%s cut %d (compress %v): streaming encoder wrote %d bytes, reference %d", kind, p.cuts, compress, got.Len(), len(want))
		}
		p.codec.Compress = compress
		b, err := codec()
		if err != nil {
			p.t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			p.t.Fatalf("%s cut %d (compress %v): Codec wrote %d bytes, reference %d", kind, p.cuts, compress, len(b), len(want))
		}
	}
}

func (p *pinningStore) SaveSnapshot(snap *store.Snapshot) (int, error) {
	cp := *snap
	cp.Version = store.Version
	p.pin("snapshot", &cp, store.Magic,
		func(w io.Writer, c bool) (int, error) { return store.EncodeSnapshotTo(w, snap, c) },
		func() ([]byte, error) { return p.codec.EncodeSnapshot(snap) })
	return p.Mem.SaveSnapshot(snap)
}

func (p *pinningStore) SaveDelta(d *store.Delta) (int, error) {
	cp := *d
	cp.Version = store.DeltaVersion
	p.pin("delta", &cp, store.DeltaMagic,
		func(w io.Writer, c bool) (int, error) { return store.EncodeDeltaTo(w, d, c) },
		func() ([]byte, error) { return p.codec.EncodeDelta(d) })
	return p.Mem.SaveDelta(d)
}

// TestVerbatimEnvelopeMatchesEncoder pins the envelope writer, which
// copies component payloads verbatim, to json.Encoder's output for every
// cut of a real service-mode study, in full and in delta mode, plain and
// compressed.
func TestVerbatimEnvelopeMatchesEncoder(t *testing.T) {
	for _, mode := range []core.CheckpointMode{core.CheckpointFull, core.CheckpointDelta} {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			t.Parallel()
			ps := &pinningStore{Mem: store.NewMem(), t: t}
			s, err := core.NewStudy(core.StudyConfig{
				Seed: 23, Scale: 0.004, ControlSample: 300, Parallelism: 1,
				Stream: &core.StreamConfig{Fanout: &stream.Fanout{
					Notify:    notify.NewService("verbatim-salt"),
					Watchlist: watchlist.New(0, func() time.Time { return simclock.Period1.Start }),
					Feed:      feed.NewLog(),
				}},
				Checkpoint: &core.CheckpointConfig{Store: ps, EveryDays: 1, Mode: mode},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if ps.cuts < 90 {
				t.Fatalf("pinned %d cuts, want one per study day", ps.cuts)
			}
		})
	}
}
