// Package stream runs the paper's detection funnel (§3) as an always-on
// streaming pipeline: poll → prepare (shard workers) → sequencer → commit
// → alert fan-out, connected by bounded channels with backpressure. It is
// the service-shaped engine behind the batch study in internal/core.
//
// Determinism model. All virtual time comes from the study clock, and all
// state mutation stays on the caller's goroutine: RunEpoch fans polls and
// the CPU-hot prepare stage out across goroutines, but seals the epoch,
// sorts by (Posted, Site, ID) — the batch study's commit comparator — and
// then invokes the commit callback in that order on the calling goroutine.
// Alert fan-out runs on a single worker consuming commits in order, and
// RunEpoch does not return until every emitted alert is delivered, so
// virtual-time stamps in downstream services (watchlist windows, feed
// seqs) are a pure function of the document schedule. A streaming run is
// therefore bit-identical to the sequential batch study on the same
// world/seed/schedule — the keystone test in internal/core enforces it.
//
// Backpressure model. Every stage channel is bounded by Config.Buffer. A
// full channel blocks the sender — a slow prepare shard throttles the
// pollers and a slow alert consumer throttles commits; nothing is dropped
// or reordered. Each blocking send increments a per-stage backpressure
// counter and feeds a stall-seconds histogram, and per-stage queue-depth
// gauges expose the live backlog, so saturation is visible on /metrics
// before it becomes latency.
package stream

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"doxmeter/internal/crawler"
	"doxmeter/internal/parallel"
	"doxmeter/internal/telemetry"
)

// ErrClosed is returned by operations on a closed pipeline.
var ErrClosed = errors.New("stream: pipeline closed")

// Source is one pollable document feed (a crawler). Poll returns every
// document that became available since the previous poll; it may return
// documents alongside an error (a partial poll under faults).
type Source struct {
	Name string
	Poll func(ctx context.Context) ([]crawler.Doc, error)
}

// Config parameterizes a pipeline. P is the prepared-document payload
// carried from the prepare stage to the commit callback.
type Config[P any] struct {
	// Shards is the number of persistent prepare workers. Documents are
	// routed by an FNV hash of site/id, so a given document key always
	// lands on the same worker. 0 means runtime.GOMAXPROCS(0).
	Shards int
	// Buffer bounds every stage channel; 0 means 64.
	Buffer int
	// PollParallelism bounds concurrent source polls per epoch; <= 1
	// polls sequentially in source order.
	PollParallelism int
	// Prepare runs the stateless CPU stages for one document. It must be
	// safe for concurrent use and must not touch mutable study state.
	Prepare func(doc *crawler.Doc) P
	// Deliver, when non-nil, receives the alert fan-out events emitted by
	// the commit callback via EmitAlert, in emit (= commit) order, on a
	// dedicated worker goroutine.
	Deliver func(d Detection)
	// Telemetry, when non-nil, receives the pipeline's queue/backpressure/
	// latency series. Metrics only observe; results are identical with
	// telemetry on or off.
	Telemetry *telemetry.Registry
}

// SourceError records one failed poll within an epoch.
type SourceError struct {
	Name string
	Err  error
}

// EpochStats summarizes one RunEpoch call.
type EpochStats struct {
	Committed int           // documents committed this epoch
	Failures  []SourceError // polls that failed (their delivered docs still committed)
}

type item struct {
	doc      crawler.Doc
	seenWall time.Time // wall time the poller handed the doc to the pipeline
}

type result[P any] struct {
	it  item
	pre P
}

type alertEnv struct {
	d    Detection
	seen time.Time
}

// Pipeline is the streaming engine. Stage goroutines (prepare shards and
// the alert worker) persist across epochs; RunEpoch drives one virtual-
// clock tick through them. Not safe for concurrent RunEpoch calls — the
// study driver owns it.
//
// Transport is chunked: documents move between stages in pooled slices of
// up to chunkLen items rather than one channel operation per document, so
// the per-document synchronization cost amortizes away at high rates. The
// chunk length and channel capacities are derived from Config.Buffer such
// that the number of buffered documents per stage stays the documented
// bound: chunkLen = min(64, Buffer) and capacity = Buffer/chunkLen chunks.
type Pipeline[P any] struct {
	cfg      Config[P]
	chunkLen int
	in       []chan *[]item // per-shard prepare inputs
	out      chan *[]result[P]
	alerts   chan alertEnv

	itemChunks sync.Pool // *[]item
	resChunks  sync.Pool // *[]result[P]

	alertWG   sync.WaitGroup
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once

	// curSeen is the poll-ingest wall time of the document currently being
	// committed; EmitAlert reads it to stamp paste-seen→alert latency.
	// Written and read only on the RunEpoch caller's goroutine.
	curSeen time.Time

	m *metrics
}

// New builds the pipeline and starts its persistent stage goroutines.
// Callers must Close it when done.
func New[P any](cfg Config[P]) *Pipeline[P] {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 64
	}
	chunkLen := cfg.Buffer
	if chunkLen > 64 {
		chunkLen = 64
	}
	chanCap := cfg.Buffer / chunkLen
	if chanCap < 1 {
		chanCap = 1
	}
	p := &Pipeline[P]{
		cfg:      cfg,
		chunkLen: chunkLen,
		in:       make([]chan *[]item, cfg.Shards),
		out:      make(chan *[]result[P], chanCap),
		alerts:   make(chan alertEnv, cfg.Buffer),
		done:     make(chan struct{}),
		m:        newMetrics(cfg.Telemetry),
	}
	p.itemChunks.New = func() any { s := make([]item, 0, chunkLen); return &s }
	p.resChunks.New = func() any { s := make([]result[P], 0, chunkLen); return &s }
	for i := range p.in {
		p.in[i] = make(chan *[]item, chanCap)
	}
	p.wg.Add(cfg.Shards + 1)
	for i := range p.in {
		go p.shardLoop(i)
	}
	go p.alertLoop()
	return p
}

// Close stops the stage goroutines. Idempotent. Must not be called
// concurrently with RunEpoch; after a cancelled epoch the pipeline may
// hold in-flight items and must be closed, not reused.
func (p *Pipeline[P]) Close() {
	p.closeOnce.Do(func() {
		close(p.done)
		p.wg.Wait()
	})
}

// fnv-1a constants, inlined so shardOf hashes without constructing a
// hash.Hash32 or copying the key strings to []byte.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shardOf routes a document to its prepare worker by key hash (FNV-1a over
// "site/id", identical to hash/fnv's sum over the same bytes).
func (p *Pipeline[P]) shardOf(doc *crawler.Doc) int {
	h := uint32(fnvOffset32)
	for i := 0; i < len(doc.Site); i++ {
		h ^= uint32(doc.Site[i])
		h *= fnvPrime32
	}
	h ^= uint32('/')
	h *= fnvPrime32
	for i := 0; i < len(doc.ID); i++ {
		h ^= uint32(doc.ID[i])
		h *= fnvPrime32
	}
	return int(h % uint32(len(p.in)))
}

// sendChunk pushes one chunk of polled documents into a shard, blocking
// (and counting the stall) when the shard is saturated. The queue gauge
// counts documents before the send so the increment happens-before the
// consumer's decrement; the gauge covers queued + in-flight and can never
// dip below zero.
func (p *Pipeline[P]) sendChunk(ctx context.Context, shard int, c *[]item) error {
	ch := p.in[shard]
	n := float64(len(*c))
	p.m.queuePrepare.Add(n)
	select {
	case ch <- c:
		return nil
	default:
	}
	p.m.bpPoll.Inc()
	start := time.Now()
	select {
	case ch <- c:
		p.m.stallPoll.Observe(time.Since(start).Seconds())
		return nil
	case <-ctx.Done():
		p.m.queuePrepare.Add(-n)
		return ctx.Err()
	case <-p.done:
		p.m.queuePrepare.Add(-n)
		return ErrClosed
	}
}

// shardLoop is one persistent prepare worker: it prepares a whole input
// chunk into a pooled result chunk, recycling the input chunk before the
// downstream send.
func (p *Pipeline[P]) shardLoop(w int) {
	defer p.wg.Done()
	for {
		select {
		case ic := <-p.in[w]:
			p.m.queuePrepare.Add(-float64(len(*ic)))
			rp := p.resChunks.Get().(*[]result[P])
			rc := (*rp)[:0]
			for k := range *ic {
				it := (*ic)[k]
				rc = append(rc, result[P]{it: it, pre: p.cfg.Prepare(&it.doc)})
			}
			*rp = rc
			*ic = (*ic)[:0]
			p.itemChunks.Put(ic)
			p.m.queueSequencer.Add(float64(len(rc)))
			select {
			case p.out <- rp:
			default:
				p.m.bpPrepare.Inc()
				start := time.Now()
				select {
				case p.out <- rp:
					p.m.stallPrepare.Observe(time.Since(start).Seconds())
				case <-p.done:
					p.m.queueSequencer.Add(-float64(len(rc)))
					return
				}
			}
		case <-p.done:
			return
		}
	}
}

// alertLoop is the single fan-out worker: it preserves commit order and
// stamps end-to-end paste-seen→alert-delivered latency.
func (p *Pipeline[P]) alertLoop() {
	defer p.wg.Done()
	for {
		select {
		case a := <-p.alerts:
			p.m.queueAlert.Add(-1)
			if p.cfg.Deliver != nil {
				p.cfg.Deliver(a.d)
			}
			if !a.seen.IsZero() {
				p.m.alertLatency.Observe(time.Since(a.seen).Seconds())
			}
			p.alertWG.Done()
		case <-p.done:
			return
		}
	}
}

// EmitAlert queues one fan-out event. Called by the commit callback (on
// the RunEpoch caller's goroutine); delivery happens on the alert worker,
// in emit order, before RunEpoch returns.
func (p *Pipeline[P]) EmitAlert(d Detection) {
	env := alertEnv{d: d, seen: p.curSeen}
	p.alertWG.Add(1)
	p.m.queueAlert.Add(1)
	select {
	case p.alerts <- env:
		return
	default:
	}
	p.m.bpCommit.Inc()
	start := time.Now()
	select {
	case p.alerts <- env:
		p.m.stallCommit.Observe(time.Since(start).Seconds())
	case <-p.done:
		p.m.queueAlert.Add(-1)
		p.alertWG.Done()
	}
}

// RunEpoch drives one virtual-clock tick: it polls every source (fanned
// out up to PollParallelism), streams the delivered documents through the
// prepare shards while later polls are still fetching, seals the epoch,
// sorts by (Posted, Site, ID), and invokes commit in that order on the
// calling goroutine. It returns after every alert emitted by the commits
// has been delivered, so downstream service state is deterministic at the
// epoch boundary (checkpoints cut between epochs see a quiesced pipeline).
//
// A poll that fails degrades the epoch instead of aborting it: the
// failure is reported in EpochStats.Failures and the documents it did
// deliver are still committed. Only context cancellation returns an
// error; after that the pipeline must be closed, not reused.
func (p *Pipeline[P]) RunEpoch(ctx context.Context, sources []Source, commit func(doc *crawler.Doc, pre P)) (EpochStats, error) {
	var stats EpochStats
	var pushed atomic.Int64
	errs := make([]error, len(sources))
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		parallel.ForEach(len(sources), p.cfg.PollParallelism, func(i int) {
			docs, err := sources[i].Poll(ctx)
			errs[i] = err
			// Batch this source's documents into per-shard chunks; each
			// chunk send covers chunkLen documents' worth of channel
			// synchronization.
			pending := make([]*[]item, len(p.in))
			for j := range docs {
				it := item{doc: docs[j], seenWall: time.Now()}
				sh := p.shardOf(&it.doc)
				c := pending[sh]
				if c == nil {
					c = p.itemChunks.Get().(*[]item)
					pending[sh] = c
				}
				*c = append(*c, it)
				if n := len(*c); n >= p.chunkLen {
					// Capture the length first: a sent chunk belongs to the
					// consumer, which may recycle it immediately.
					if p.sendChunk(ctx, sh, c) != nil {
						return // epoch cancelled; the run is aborting
					}
					pushed.Add(int64(n))
					pending[sh] = nil
				}
			}
			for sh, c := range pending {
				if c == nil {
					continue
				}
				n := len(*c)
				if p.sendChunk(ctx, sh, c) != nil {
					return
				}
				pushed.Add(int64(n))
			}
		})
	}()

	// Sequencer: buffer prepared documents until the epoch seals (all
	// polls returned and every pushed document came back prepared).
	var buf []result[P]
	sealed := pollDone
	polling := true
	for polling || int64(len(buf)) < pushed.Load() {
		select {
		case rp := <-p.out:
			p.m.queueSequencer.Add(-float64(len(*rp)))
			buf = append(buf, *rp...)
			*rp = (*rp)[:0]
			p.resChunks.Put(rp)
		case <-sealed:
			polling = false
			sealed = nil // a nil channel never fires again
		case <-ctx.Done():
			<-pollDone // let pollers unwind before the caller tears down
			return stats, ctx.Err()
		case <-p.done:
			return stats, ErrClosed
		}
	}

	// A cancelled epoch never commits: the batch study aborts between
	// poll and process on cancellation, and bit-identity with it demands
	// the same here (a partially-polled day must not fold into the digest).
	if err := ctx.Err(); err != nil {
		return stats, err
	}

	// Commit stage: the exact batch-study order. sort.Slice is unstable,
	// but (Posted, Site, ID) is a total order over unique documents.
	sort.Slice(buf, func(i, j int) bool {
		a, b := &buf[i].it.doc, &buf[j].it.doc
		if !a.Posted.Equal(b.Posted) {
			return a.Posted.Before(b.Posted)
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.ID < b.ID
	})
	for i := range buf {
		p.curSeen = buf[i].it.seenWall
		commit(&buf[i].it.doc, buf[i].pre)
	}
	p.curSeen = time.Time{}
	stats.Committed = len(buf)

	// Alert drain barrier: every EmitAlert from the commits above is
	// delivered before the epoch ends.
	p.alertWG.Wait()

	for i, err := range errs {
		if err != nil {
			stats.Failures = append(stats.Failures, SourceError{Name: sources[i].Name, Err: err})
		}
	}
	p.m.epochs.Inc()
	p.m.docs.Add(float64(len(buf)))
	return stats, nil
}
