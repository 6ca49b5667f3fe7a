package store

import "sync"

// memBlob is one encoded checkpoint image held by Mem.
type memBlob struct {
	seq uint64
	b   []byte
}

// Mem is an in-memory Store. It round-trips snapshots and deltas through
// the same codec as the file backend, so anything that works against Mem
// (tests, examples, the resume suite) exercises the exact encode/decode
// path a production state dir would. Retention mirrors File: the latest
// two full snapshots, plus every delta above the oldest retained full.
type Mem struct {
	mu      sync.Mutex
	snaps   []memBlob // encoded full snapshots, oldest first
	deltas  []memBlob // encoded deltas, oldest first
	entries []Entry
	closed  bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// SaveSnapshot implements Store.
func (m *Mem) SaveSnapshot(snap *Snapshot) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, err := Encode(snap)
	if err != nil {
		return 0, err
	}
	m.snaps = append(m.snaps, memBlob{seq: snap.Seq, b: b})
	// Mirror the file backend's retention: latest two fulls, and only
	// the deltas an anchored chain can still reach.
	if len(m.snaps) > keepSnapshots {
		m.snaps = m.snaps[len(m.snaps)-keepSnapshots:]
	}
	oldestKept := m.snaps[0].seq
	kept := m.deltas[:0]
	for _, d := range m.deltas {
		if d.seq > oldestKept {
			kept = append(kept, d)
		}
	}
	m.deltas = kept
	return len(b), nil
}

// SaveDelta implements Store.
func (m *Mem) SaveDelta(d *Delta) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, err := EncodeDelta(d)
	if err != nil {
		return 0, err
	}
	m.deltas = append(m.deltas, memBlob{seq: d.Seq, b: b})
	return len(b), nil
}

// LoadChain implements Store, with the same chain-walk semantics as
// the file backend: newest decodable full, then contiguous linked deltas
// until the first gap or mislink.
func (m *Mem) LoadChain() (*Snapshot, []*Delta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.snaps) == 0 {
		return nil, nil, ErrNoSnapshot
	}
	bySeq := make(map[uint64][]byte, len(m.deltas))
	for _, d := range m.deltas {
		bySeq[d.seq] = d.b
	}
	snap, err := Decode(m.snaps[len(m.snaps)-1].b)
	if err != nil {
		return nil, nil, err
	}
	var chain []*Delta
	for seq := snap.Seq + 1; ; seq++ {
		b, ok := bySeq[seq]
		if !ok {
			return snap, chain, nil
		}
		d, err := DecodeDelta(b)
		if err != nil {
			return nil, nil, err
		}
		if d.BaseSeq != seq-1 {
			return snap, chain, nil
		}
		chain = append(chain, d)
	}
}

// AppendEntry implements Store.
func (m *Mem) AppendEntry(e Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = append(m.entries, e)
	return nil
}

// Entries implements Store.
func (m *Mem) Entries() ([]Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Entry, len(m.entries))
	copy(out, m.entries)
	return out, nil
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
