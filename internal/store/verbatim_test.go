package store_test

import (
	"bytes"
	"context"
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

// pinningStore checks every cut a study writes: the streaming encoders
// must write exactly the reference encoding.
type pinningStore struct {
	*store.Mem
	t    *testing.T
	cuts int
}

func (p *pinningStore) pin(kind string, v any, magic string, stream func(io.Writer) (int, error)) {
	p.t.Helper()
	p.cuts++
	want := store.EncoderBytes(p.t, magic, v, false)
	var got bytes.Buffer
	n, err := stream(&got)
	if err != nil {
		p.t.Fatal(err)
	}
	if n != got.Len() || !bytes.Equal(got.Bytes(), want) {
		p.t.Fatalf("%s cut %d: streaming encoder wrote %d bytes, reference %d", kind, p.cuts, got.Len(), len(want))
	}
}

func (p *pinningStore) SaveSnapshot(snap *store.Snapshot) (int, error) {
	cp := *snap
	cp.Version = store.Version
	p.pin("snapshot", &cp, store.Magic,
		func(w io.Writer) (int, error) { return store.EncodeSnapshotTo(w, snap) })
	return p.Mem.SaveSnapshot(snap)
}

func (p *pinningStore) SaveDelta(d *store.Delta) (int, error) {
	cp := *d
	cp.Version = store.DeltaVersion
	p.pin("delta", &cp, store.DeltaMagic,
		func(w io.Writer) (int, error) { return store.EncodeDeltaTo(w, d) })
	return p.Mem.SaveDelta(d)
}

// TestVerbatimEnvelopeMatchesEncoder pins the envelope writer, which
// copies component payloads verbatim, to json.Encoder's output for every
// cut of a real service-mode study, in full and in delta mode.
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
				Checkpoint: &core.CheckpointConfig{Store: ps, Mode: mode},
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
