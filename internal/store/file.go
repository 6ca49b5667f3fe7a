package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	snapshotPrefix = "snapshot-"
	deltaPrefix    = "delta-"
	snapshotSuffix = ".ckpt"
	commitLogName  = "commits.log"
	keepSnapshots  = 2
)

// File is the file-backed Store. Full snapshots are written crash-safely
// (temp file in the same dir, fsync, atomic rename, dir fsync) under
// names like snapshot-00000042.ckpt, keeping the latest two so a torn
// latest file still leaves a usable predecessor. Delta cuts follow the
// same write discipline under delta-00000043.ckpt and share the
// snapshot sequence space; deltas older than the oldest retained full
// snapshot are pruned when a new full snapshot lands, so every retained
// full snapshot anchors a complete chain to the newest cut. The commit
// log is a JSON-lines file, fsynced per append; Entries tolerates a
// truncated final line.
//
// Both snapshot and delta writes stream through the codec directly into
// the temp file — the encoded image is never buffered in memory.
type File struct {
	dir string

	mu   sync.Mutex
	logF *os.File
	bw   *bufio.Writer // reused across checkpoint writes

	// Commit-log encoder scratch, reused across appends under mu: one
	// buffer and one encoder instead of a fresh json.Marshal slice per
	// entry.
	logBuf bytes.Buffer
	logEnc *json.Encoder
}

// OpenFile opens (creating if needed) a state directory.
func OpenFile(dir string) (*File, error) {
	if dir == "" {
		return nil, errors.New("store: empty state dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create state dir: %w", err)
	}
	return &File{dir: dir}, nil
}

// Dir returns the state directory this store writes to.
func (f *File) Dir() string { return f.dir }

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", snapshotPrefix, seq, snapshotSuffix)
}

func deltaName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", deltaPrefix, seq, snapshotSuffix)
}

// seqsWithPrefix lists the sequence numbers of checkpoint files carrying
// the given name prefix, ascending.
func (f *File) seqsWithPrefix(prefix string) ([]uint64, error) {
	names, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("store: read state dir: %w", err)
	}
	var seqs []uint64
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, snapshotSuffix) {
			continue
		}
		var seq uint64
		numeric := strings.TrimSuffix(strings.TrimPrefix(name, prefix), snapshotSuffix)
		if _, err := fmt.Sscanf(numeric, "%d", &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// snapshotSeqs lists the sequence numbers of full-snapshot files on
// disk, ascending.
func (f *File) snapshotSeqs() ([]uint64, error) {
	return f.seqsWithPrefix(snapshotPrefix)
}

// writeAtomicLocked streams a checkpoint file crash-safely: temp file in
// the state dir, buffered encode, fsync, atomic rename to final, then a
// directory fsync so the new entry survives a power cut. Returns the
// encoded size.
func (f *File) writeAtomicLocked(final string, encode func(io.Writer) (int, error)) (int, error) {
	tmp, err := os.CreateTemp(f.dir, snapshotPrefix+"*.tmp")
	if err != nil {
		return 0, fmt.Errorf("store: create checkpoint temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if f.bw == nil {
		f.bw = bufio.NewWriterSize(tmp, 1<<20)
	} else {
		f.bw.Reset(tmp)
	}
	n, err := encode(f.bw)
	if err == nil {
		err = f.bw.Flush()
	}
	if err != nil {
		cleanup()
		return 0, fmt.Errorf("store: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return 0, fmt.Errorf("store: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: close checkpoint temp: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(f.dir, final)); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: publish checkpoint: %w", err)
	}
	if err := f.syncDir(); err != nil {
		return 0, err
	}
	return n, nil
}

// SaveSnapshot implements Store.
func (f *File) SaveSnapshot(snap *Snapshot) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.writeAtomicLocked(snapshotName(snap.Seq), func(w io.Writer) (int, error) {
		return EncodeSnapshotTo(w, snap)
	})
	if err != nil {
		return 0, err
	}
	f.pruneLocked()
	return n, nil
}

// SaveDelta implements Store. The delta file is published with the
// same temp + fsync + rename + dir-fsync discipline as full snapshots;
// retention stays anchored to full snapshots, so this never prunes.
func (f *File) SaveDelta(d *Delta) (int, error) {
	if d == nil {
		return 0, errors.New("store: cannot encode nil delta")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeAtomicLocked(deltaName(d.Seq), func(w io.Writer) (int, error) {
		return EncodeDeltaTo(w, d)
	})
}

// syncDir fsyncs the state directory so renames and file creations are
// durable: without it a crash can roll back the directory entry even
// though the file's own bytes were synced.
func (f *File) syncDir() error {
	d, err := os.Open(f.dir)
	if err != nil {
		return fmt.Errorf("store: open state dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync state dir: %w", err)
	}
	return nil
}

// pruneLocked removes all but the newest keepSnapshots full-snapshot
// files, plus every delta at or below the oldest retained full snapshot
// (those days are already covered by it, so no retained chain can need
// them). Pruning is best-effort: a leftover file is re-pruned on the
// next full cut.
func (f *File) pruneLocked() {
	seqs, err := f.snapshotSeqs()
	if err != nil || len(seqs) <= keepSnapshots {
		return
	}
	for _, seq := range seqs[:len(seqs)-keepSnapshots] {
		os.Remove(filepath.Join(f.dir, snapshotName(seq)))
	}
	oldestKept := seqs[len(seqs)-keepSnapshots]
	deltaSeqs, err := f.seqsWithPrefix(deltaPrefix)
	if err != nil {
		return
	}
	for _, seq := range deltaSeqs {
		if seq <= oldestKept {
			os.Remove(filepath.Join(f.dir, deltaName(seq)))
		}
	}
}

// LoadChain implements Store. It walks snapshots newest-first and
// anchors the chain on the first that decodes; a corrupt or truncated
// newest file falls back to its predecessor, but a version-skewed
// snapshot aborts the walk — silently resuming from an older-format
// predecessor would hide the skew from the operator.
func (f *File) LoadChain() (*Snapshot, []*Delta, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	seqs, err := f.snapshotSeqs()
	if err != nil {
		return nil, nil, err
	}
	if len(seqs) == 0 {
		return nil, nil, ErrNoSnapshot
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		snap, err := f.readSnapshot(seqs[i])
		if err != nil {
			if errors.Is(err, ErrVersionSkew) {
				return nil, nil, err
			}
			lastErr = err
			continue
		}
		chain, err := f.readDeltaChain(snap.Seq)
		if err != nil {
			return nil, nil, err
		}
		return snap, chain, nil
	}
	return nil, nil, fmt.Errorf("%w (no decodable snapshot file: %v)", ErrNoSnapshot, lastErr)
}

func (f *File) readSnapshot(seq uint64) (*Snapshot, error) {
	b, err := os.ReadFile(filepath.Join(f.dir, snapshotName(seq)))
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// readDeltaChain collects the contiguous run of deltas extending the
// full snapshot at base: seq base+1, base+2, … while each file exists,
// decodes, and links to its predecessor. A missing, torn, or mislinked
// delta ends the chain there — at worst the tip cut is re-run — but a
// version-skewed delta is terminal, mirroring snapshot skew handling.
func (f *File) readDeltaChain(base uint64) ([]*Delta, error) {
	var chain []*Delta
	for seq := base + 1; ; seq++ {
		b, err := os.ReadFile(filepath.Join(f.dir, deltaName(seq)))
		if err != nil {
			return chain, nil
		}
		d, err := DecodeDelta(b)
		if err != nil {
			if errors.Is(err, ErrVersionSkew) {
				return nil, err
			}
			return chain, nil
		}
		if d.Seq != seq || d.BaseSeq != seq-1 {
			return chain, nil
		}
		chain = append(chain, d)
	}
}

// AppendEntry implements Store.
func (f *File) AppendEntry(e Entry) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.logF == nil {
		path := filepath.Join(f.dir, commitLogName)
		_, statErr := os.Stat(path)
		lf, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: open commit log: %w", err)
		}
		f.logF = lf
		// A freshly created log needs its directory entry persisted too,
		// or a crash after the first synced append could lose the whole
		// log while the snapshot it describes survives.
		if os.IsNotExist(statErr) {
			if err := f.syncDir(); err != nil {
				return err
			}
		}
	}
	// Encode into the reused buffer. json.Encoder produces exactly
	// json.Marshal's bytes plus the trailing '\n' the log format wants
	// (same compact form, same HTML escaping), so the on-disk encoding
	// is unchanged — only the per-entry allocation is gone.
	f.logBuf.Reset()
	if f.logEnc == nil {
		f.logEnc = json.NewEncoder(&f.logBuf)
	}
	if err := f.logEnc.Encode(e); err != nil {
		return fmt.Errorf("store: encode log entry: %w", err)
	}
	if _, err := f.logF.Write(f.logBuf.Bytes()); err != nil {
		return fmt.Errorf("store: append log entry: %w", err)
	}
	if err := f.logF.Sync(); err != nil {
		return fmt.Errorf("store: sync commit log: %w", err)
	}
	return nil
}

// Entries implements Store. The readable prefix of the log is returned;
// parsing stops at the first malformed line (a crash can tear at most
// the final one, so everything before it is trustworthy).
func (f *File) Entries() ([]Entry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, err := os.ReadFile(filepath.Join(f.dir, commitLogName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: read commit log: %w", err)
	}
	var out []Entry
	for _, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			break
		}
		out = append(out, e)
	}
	return out, nil
}

// Close implements Store.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.logF != nil {
		err := f.logF.Close()
		f.logF = nil
		return err
	}
	return nil
}
