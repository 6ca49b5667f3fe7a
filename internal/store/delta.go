package store

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

const (
	// DeltaMagic is the first token of every encoded delta.
	DeltaMagic = "doxmeter-delta"
	// DeltaVersion is the delta codec version understood by this build.
	// DecodeDelta rejects any other version with ErrVersionSkew.
	DeltaVersion = 1
)

// Component delta operations. A delta carries one op per component:
// unchanged components are stored as a reference to the base snapshot's
// payload, changed ones as a compact patch, and (for forward
// compatibility) a component may also be replaced wholesale.
const (
	// OpRef marks a component unchanged since the base snapshot: the
	// payload is empty and apply carries the base payload forward.
	OpRef = "ref"
	// OpPatch carries a component-specific patch applied to the base
	// payload by the component's delta Apply.
	OpPatch = "patch"
	// OpFull replaces the component payload wholesale.
	OpFull = "full"
)

// ComponentDelta is one component's entry in a Delta.
type ComponentDelta struct {
	Op      string          `json:"op"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Delta encodes one checkpoint cut as a diff against the previous cut.
// Seq numbers are shared with full snapshots: a delta with Seq n applies
// to the state at cut n-1 (BaseSeq), whether that cut was persisted as a
// full snapshot or as another delta. Meta describes the study position at
// this cut, exactly as a full snapshot's Meta would.
type Delta struct {
	Version    int                       `json:"version"`
	Seq        uint64                    `json:"seq"`
	BaseSeq    uint64                    `json:"base_seq"`
	Meta       Meta                      `json:"meta"`
	Components map[string]ComponentDelta `json:"components"`
}

// Body encodings named in the header line. The absence of an encoding
// token means encodingJSON, which keeps v1 full-snapshot headers valid.
const (
	encodingJSON  = "json"
	encodingFlate = "flate"
)

// parseHeader validates a codec header line ("<magic> v<N>" or
// "<magic> v<N> <encoding>") and returns the body encoding. An unknown
// encoding token maps to ErrVersionSkew: only a newer writer would emit
// one, and falling back to an older file would hide that from the
// operator.
func parseHeader(header, magic string, version int) (string, error) {
	fields := strings.Fields(header)
	if len(fields) < 2 || len(fields) > 3 || fields[0] != magic ||
		len(fields[1]) < 2 || fields[1][0] != 'v' {
		return "", fmt.Errorf("store: bad header %q", header)
	}
	got, err := strconv.Atoi(fields[1][1:])
	if err != nil {
		return "", fmt.Errorf("store: bad header %q", header)
	}
	if got != version {
		return "", fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersionSkew, got, version)
	}
	enc := encodingJSON
	if len(fields) == 3 {
		enc = fields[2]
	}
	switch enc {
	case encodingJSON, encodingFlate:
		return enc, nil
	default:
		return "", fmt.Errorf("%w: unknown body encoding %q", ErrVersionSkew, enc)
	}
}

// countingWriter tracks bytes written through it, so streaming encoders
// can report the on-disk size without buffering the whole payload.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// encodeStream writes the header line and then the body that body
// writes, optionally through flate. fw, when non-nil, is reused via
// Reset so steady-state compression allocates nothing. Returns bytes
// written.
func encodeStream(w io.Writer, fw *flate.Writer, magic string, version int, compress bool, body func(io.Writer) error) (int, error) {
	cw := &countingWriter{w: w}
	header := fmt.Sprintf("%s v%d\n", magic, version)
	if compress {
		header = fmt.Sprintf("%s v%d %s\n", magic, version, encodingFlate)
	}
	if _, err := io.WriteString(cw, header); err != nil {
		return cw.n, err
	}
	out := io.Writer(cw)
	if compress {
		if fw == nil {
			var err error
			fw, err = flate.NewWriter(cw, flate.BestSpeed)
			if err != nil {
				return cw.n, err
			}
		} else {
			fw.Reset(cw)
		}
		out = fw
	}
	if err := body(out); err != nil {
		return cw.n, err
	}
	if compress {
		if err := fw.Close(); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// envelope writes a checkpoint body — the JSON form of a Snapshot or a
// Delta, byte for byte what json.Encoder.Encode writes for it — straight
// into its destination. Component payloads are copied verbatim: every
// component produces its payload with json.Marshal, so it is already
// compact, HTML-escaped JSON, and json.Encoder would only buffer the
// whole image and re-scan each payload into the same bytes. A payload
// decoded from a file is likewise copied as it was read.
type envelope struct {
	w   io.Writer
	b   []byte // pending small tokens, flushed before each payload
	err error
}

func (e *envelope) lit(s string) { e.b = append(e.b, s...) }

func (e *envelope) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }

// str appends s as a JSON string. Keys and ops are plain ASCII in
// practice; anything else goes through json.Marshal, which escapes it as
// json.Encoder would.
func (e *envelope) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil && e.err == nil {
				e.err = err
			}
			e.b = append(e.b, b...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// meta appends the study position (small; marshalled as json.Encoder
// would).
func (e *envelope) meta(m Meta) {
	b, err := json.Marshal(m)
	if err != nil && e.err == nil {
		e.err = err
	}
	e.b = append(e.b, b...)
}

// payload writes p verbatim after the pending tokens.
func (e *envelope) payload(p []byte) {
	e.flush()
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

func (e *envelope) flush() {
	if e.err == nil && len(e.b) > 0 {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

// sortedKeys returns a map's keys in the order json.Encoder writes them.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSnapshotBody writes snap as a v1 snapshot body. A nil payload is
// written as null and an empty one is refused, as json.Encoder does.
func writeSnapshotBody(w io.Writer, snap *Snapshot) error {
	e := &envelope{w: w, b: make([]byte, 0, 256)}
	e.lit(`{"version":`)
	e.uint(Version)
	e.lit(`,"seq":`)
	e.uint(snap.Seq)
	e.lit(`,"meta":`)
	e.meta(snap.Meta)
	e.lit(`,"components":`)
	if snap.Components == nil {
		e.lit("null")
	} else {
		e.lit("{")
		for i, k := range sortedKeys(snap.Components) {
			if i > 0 {
				e.lit(",")
			}
			e.str(k)
			e.lit(":")
			switch p := snap.Components[k]; {
			case p == nil:
				e.lit("null")
			case len(p) == 0:
				return fmt.Errorf("store: component %q has an empty payload", k)
			default:
				e.payload(p)
			}
		}
		e.lit("}")
	}
	e.lit("}\n")
	e.flush()
	return e.err
}

// writeDeltaBody writes d as a v1 delta body; an empty payload is
// omitted, as the omitempty tag tells json.Encoder to.
func writeDeltaBody(w io.Writer, d *Delta) error {
	e := &envelope{w: w, b: make([]byte, 0, 256)}
	e.lit(`{"version":`)
	e.uint(DeltaVersion)
	e.lit(`,"seq":`)
	e.uint(d.Seq)
	e.lit(`,"base_seq":`)
	e.uint(d.BaseSeq)
	e.lit(`,"meta":`)
	e.meta(d.Meta)
	e.lit(`,"components":`)
	if d.Components == nil {
		e.lit("null")
	} else {
		e.lit("{")
		for i, k := range sortedKeys(d.Components) {
			if i > 0 {
				e.lit(",")
			}
			cd := d.Components[k]
			e.str(k)
			e.lit(`:{"op":`)
			e.str(cd.Op)
			if len(cd.Payload) > 0 {
				e.lit(`,"payload":`)
				e.payload(cd.Payload)
			}
			e.lit("}")
		}
		e.lit("}")
	}
	e.lit("}\n")
	e.flush()
	return e.err
}

// decodeStream reads a header line from r, validates it against magic
// and version, and JSON-decodes the body (inflating if the header names
// the flate encoding) into v.
func decodeStream(r io.Reader, magic string, version int, v any) error {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("store: truncated before header end")
	}
	enc, err := parseHeader(strings.TrimSuffix(header, "\n"), magic, version)
	if err != nil {
		return err
	}
	body := io.Reader(br)
	if enc == encodingFlate {
		fr := flate.NewReader(br)
		defer fr.Close()
		body = fr
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("store: decode body: %w", err)
	}
	return nil
}

// encodeSnapshotStream is EncodeSnapshotTo with a caller-owned flate
// writer for reuse across cuts (nil allocates one per call).
func encodeSnapshotStream(w io.Writer, fw *flate.Writer, snap *Snapshot, compress bool) (int, error) {
	if snap == nil {
		return 0, errors.New("store: cannot encode nil snapshot")
	}
	n, err := encodeStream(w, fw, Magic, Version, compress, func(w io.Writer) error {
		return writeSnapshotBody(w, snap)
	})
	if err != nil {
		return n, fmt.Errorf("store: encode snapshot: %w", err)
	}
	return n, nil
}

// EncodeSnapshotTo streams snap to w — header line, then the JSON body,
// optionally flate-compressed — without buffering the whole payload.
// Returns the number of bytes written.
func EncodeSnapshotTo(w io.Writer, snap *Snapshot, compress bool) (int, error) {
	return encodeSnapshotStream(w, nil, snap, compress)
}

// DecodeSnapshotFrom parses a snapshot stream produced by Encode or
// EncodeSnapshotTo, in either body encoding.
func DecodeSnapshotFrom(r io.Reader) (*Snapshot, error) {
	var snap Snapshot
	if err := decodeStream(r, Magic, Version, &snap); err != nil {
		return nil, err
	}
	if snap.Version != Version {
		return nil, fmt.Errorf("%w: snapshot body is v%d, this build reads v%d", ErrVersionSkew, snap.Version, Version)
	}
	return &snap, nil
}

// encodeDeltaStream is EncodeDeltaTo with a caller-owned flate writer
// for reuse across cuts (nil allocates one per call).
func encodeDeltaStream(w io.Writer, fw *flate.Writer, d *Delta, compress bool) (int, error) {
	if d == nil {
		return 0, errors.New("store: cannot encode nil delta")
	}
	n, err := encodeStream(w, fw, DeltaMagic, DeltaVersion, compress, func(w io.Writer) error {
		return writeDeltaBody(w, d)
	})
	if err != nil {
		return n, fmt.Errorf("store: encode delta: %w", err)
	}
	return n, nil
}

// EncodeDeltaTo streams d to w: a one-line header (magic, codec version,
// optional body encoding), then the JSON body. Returns bytes written.
func EncodeDeltaTo(w io.Writer, d *Delta, compress bool) (int, error) {
	return encodeDeltaStream(w, nil, d, compress)
}

// EncodeDelta serializes a delta into a fresh byte slice. The write path
// proper streams via EncodeDeltaTo (File) or a reusable Codec (Mem);
// this form exists for tests and tooling.
func EncodeDelta(d *Delta) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := EncodeDeltaTo(&buf, d, false); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeDeltaFrom parses a delta stream produced by EncodeDeltaTo,
// rejecting unknown magic and returning ErrVersionSkew for any codec
// version other than DeltaVersion.
func DecodeDeltaFrom(r io.Reader) (*Delta, error) {
	var d Delta
	if err := decodeStream(r, DeltaMagic, DeltaVersion, &d); err != nil {
		return nil, err
	}
	if d.Version != DeltaVersion {
		return nil, fmt.Errorf("%w: delta body is v%d, this build reads v%d", ErrVersionSkew, d.Version, DeltaVersion)
	}
	for name, cd := range d.Components {
		switch cd.Op {
		case OpRef, OpPatch, OpFull:
		default:
			return nil, fmt.Errorf("store: component %q has unknown delta op %q", name, cd.Op)
		}
	}
	return &d, nil
}

// DecodeDelta parses bytes produced by EncodeDelta/EncodeDeltaTo.
func DecodeDelta(b []byte) (*Delta, error) {
	return DecodeDeltaFrom(bytes.NewReader(b))
}

// Codec encodes snapshots and deltas into a reusable internal buffer,
// amortizing buffer and flate-state allocations across checkpoint cuts.
// The returned slice aliases the internal buffer and is valid only until
// the next Encode* call on the same Codec. Not safe for concurrent use.
type Codec struct {
	// Compress selects flate body encoding for subsequent Encode* calls.
	Compress bool

	buf bytes.Buffer
	fw  *flate.Writer
}

// flateWriter returns the reusable flate writer when compressing, else
// nil.
func (c *Codec) flateWriter() *flate.Writer {
	if !c.Compress {
		return nil
	}
	if c.fw == nil {
		c.fw, _ = flate.NewWriter(io.Discard, flate.BestSpeed)
	}
	return c.fw
}

// EncodeSnapshot encodes snap into the codec's buffer.
func (c *Codec) EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	c.buf.Reset()
	if _, err := encodeSnapshotStream(&c.buf, c.flateWriter(), snap, c.Compress); err != nil {
		return nil, err
	}
	return c.buf.Bytes(), nil
}

// EncodeDelta encodes d into the codec's buffer.
func (c *Codec) EncodeDelta(d *Delta) ([]byte, error) {
	c.buf.Reset()
	if _, err := encodeDeltaStream(&c.buf, c.flateWriter(), d, c.Compress); err != nil {
		return nil, err
	}
	return c.buf.Bytes(), nil
}

// DeltaStore is the optional capability a Store may implement to persist
// incremental checkpoints. Both shipped backends (Mem, File) implement
// it; a Store that does not cannot be used with the study's delta
// checkpoint mode.
type DeltaStore interface {
	Store

	// SaveDelta durably stores one delta cut, returning the encoded size
	// in bytes. Deltas are never pruned by this call; retention is
	// anchored to full snapshots (see SaveSnapshot).
	SaveDelta(d *Delta) (int, error)

	// LoadChain returns the newest decodable full snapshot plus the
	// contiguous run of deltas extending it (possibly empty), newest
	// chain first truncated at the first gap, undecodable file, or
	// base-sequence mismatch — a torn chain tip costs at most re-running
	// the days since the last decodable cut. ErrNoSnapshot when the
	// store holds no full snapshot; ErrVersionSkew (terminal) when a
	// snapshot or chain delta was written by a different codec version.
	LoadChain() (*Snapshot, []*Delta, error)
}
