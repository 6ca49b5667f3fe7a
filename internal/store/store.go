// Package store is the pluggable persistence layer behind durable studies.
//
// A Store holds two things for a running study:
//
//   - Snapshots: full, versioned images of every stateful pipeline
//     component (crawler cursors and seen sets, dedup indexes, monitor
//     histories, core funnel state), written at study-day boundaries.
//   - An append-only commit log of small Entry records (one per study
//     day plus run lifecycle events), carrying a rolling digest of the
//     committed document stream so a resumed run can be cross-checked
//     against the log it claims to continue.
//
// Two backends ship with the package: Mem (tests, examples) and File
// (crash-safe snapshots via temp-file + fsync + rename, plus a JSONL
// commit log that tolerates a torn final line). Both speak the same
// codec, so bytes written by one decode under the other.
//
// Privacy: snapshot payloads are produced by the components' snapshot
// APIs, which follow the §3.3 discipline — salted digests and category
// booleans persist, raw dox text / phone numbers / emails / IP addresses
// never do. The store itself treats payloads as opaque.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"time"
)

const (
	// Magic is the first token of every encoded snapshot.
	Magic = "doxmeter-checkpoint"
	// Version is the snapshot codec version understood by this build.
	// Decode rejects any other version with ErrVersionSkew.
	Version = 1
)

var (
	// ErrNoSnapshot is returned by LoadSnapshot when the store holds no
	// decodable snapshot (a fresh state dir, or an empty Mem store).
	ErrNoSnapshot = errors.New("store: no snapshot available")
	// ErrVersionSkew is returned when a snapshot was written by a
	// different codec version than this build understands.
	ErrVersionSkew = errors.New("store: snapshot codec version mismatch")
)

// Meta identifies the study a snapshot belongs to and where in the
// virtual timeline it was taken. Restore refuses a snapshot whose Seed
// or Scale disagree with the configured study.
type Meta struct {
	Seed        int64     `json:"seed"`
	Scale       float64   `json:"scale"`
	VirtualTime time.Time `json:"virtual_time"`
	Period      int       `json:"period"` // 1 or 2
	Day         int       `json:"day"`    // day index within the period, 0-based
}

// Snapshot is a full image of a study's mutable state at one day
// boundary. Components is keyed by component name ("core", "dedup",
// "monitor", "crawler/<site>") with each component's own JSON payload
// stored verbatim, so Decode→Encode round-trips byte-identically.
type Snapshot struct {
	Version    int                        `json:"version"`
	Seq        uint64                     `json:"seq"`
	Meta       Meta                       `json:"meta"`
	Components map[string]json.RawMessage `json:"components"`
}

// Commit-log entry kinds.
const (
	KindRunStart = "run-start" // a fresh study began
	KindResume   = "resume"    // a study resumed from a snapshot
	KindDay      = "day"       // one study day committed
	KindSnapshot = "snapshot"  // a full snapshot was persisted
	KindDelta    = "delta"     // an incremental delta cut was persisted
	KindStop     = "stop"      // the study stopped on request after a checkpoint
)

// Entry is one record in the append-only commit log.
type Entry struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Seq is the checkpoint sequence number ("snapshot"/"delta" entries).
	Seq uint64 `json:"seq,omitempty"`
	// Base is the sequence the cut applies to ("delta" entries only).
	Base   uint64    `json:"base,omitempty"`
	Period int       `json:"period,omitempty"`
	Day    int       `json:"day,omitempty"`
	VTime  time.Time `json:"vtime"`
	// Funnel counters at the end of the day, for quick inspection.
	Collected int `json:"collected,omitempty"`
	Flagged   int `json:"flagged,omitempty"`
	Doxes     int `json:"doxes,omitempty"`
	// Digest is the rolling run digest (hex) over the ordered committed
	// document stream up to and including this day.
	Digest string `json:"digest,omitempty"`
	// Bytes is the encoded snapshot size ("snapshot" entries only).
	Bytes int `json:"bytes,omitempty"`
}

// Store is the persistence interface a durable study writes through.
// Implementations must be safe for use from a single study goroutine;
// they are not required to support concurrent writers.
type Store interface {
	// SaveSnapshot encodes and durably stores snap, returning the
	// encoded size in bytes. Older snapshots may be pruned.
	SaveSnapshot(snap *Snapshot) (int, error)
	// LoadSnapshot returns the most recent decodable snapshot, or
	// ErrNoSnapshot if none exists. A latest-but-corrupt snapshot falls
	// back to the previous one; a version-skewed snapshot is terminal
	// and surfaces ErrVersionSkew.
	LoadSnapshot() (*Snapshot, error)
	// AppendEntry appends one record to the commit log.
	AppendEntry(e Entry) error
	// Entries returns the readable prefix of the commit log. A torn
	// final record (e.g. from a crash mid-write) is dropped silently.
	Entries() ([]Entry, error)
	// Close releases backend resources. The Store is unusable after.
	Close() error
}

// Encode serializes a snapshot: a one-line header carrying the magic and
// codec version, then the JSON body. The header is checked before the
// body is parsed, so skew is detected even across incompatible layouts.
// The write paths proper stream instead of buffering (EncodeSnapshotTo,
// Codec); this form exists for tests and tooling.
func Encode(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := EncodeSnapshotTo(&buf, snap, false); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses bytes produced by Encode or EncodeSnapshotTo, rejecting
// unknown magic and returning ErrVersionSkew for any codec version other
// than Version.
func Decode(b []byte) (*Snapshot, error) {
	return DecodeSnapshotFrom(bytes.NewReader(b))
}
