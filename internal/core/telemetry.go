package core

import (
	"context"
	"strconv"

	"doxmeter/internal/dedup"
	"doxmeter/internal/telemetry"
)

// studyMetrics holds every study-level instrument, pre-resolved once at
// construction so the per-day and per-document hot paths never touch the
// registry's name→family maps. With telemetry disabled the struct is a zero
// value: every instrument is nil (each call a no-op pointer test), enabled
// is false, and the per-document fast path skips even the clock reads.
type studyMetrics struct {
	enabled bool
	hub     *telemetry.Hub

	// One observation per study day per stage (doxmeter_stage_seconds).
	// "epoch" covers the day's whole collection pass: poll, prepare and
	// commit together.
	stagePoll    *telemetry.Histogram
	stagePrepare *telemetry.Histogram
	stageCommit  *telemetry.Histogram
	stageMonitor *telemetry.Histogram
	stageEpoch   *telemetry.Histogram

	// One observation per document per CPU-hot stage
	// (doxmeter_doc_stage_seconds). "classify" covers the TF-IDF transform
	// and the SGD prediction together: the classifier API exposes no seam
	// between them.
	docHTML     *telemetry.Histogram
	docClassify *telemetry.Histogram
	docExtract  *telemetry.Histogram

	// Fused-kernel hot-path instruments: per-document classify latency
	// (doxmeter_classify_seconds; same observations as the doc-stage
	// histogram's classify label, on a dedicated series dashboards can
	// alert on) and the allocations-per-document gauge sampled around each
	// prepare batch (doxmeter_classify_allocs_per_doc).
	classifySeconds *telemetry.Histogram
	classifyAllocs  *telemetry.Gauge

	// Extraction hot-path instruments, mirroring the classify pair:
	// per-flagged-document extract latency (doxmeter_extract_seconds; same
	// observations as the doc-stage histogram's extract label, on a
	// dedicated series) and a steady-state allocation probe
	// (doxmeter_extract_allocs_per_doc) that re-runs one flagged document
	// per prepare batch through a study-held kernel and scratch record.
	extractSeconds *telemetry.Histogram
	extractAllocs  *telemetry.Gauge

	// alertLatency is the wall time from a source's poll returning to
	// the delivery of each unique dox it carried
	// (doxmeter_alert_latency_seconds); observed only in service mode.
	alertLatency *telemetry.Histogram

	queueDepth *telemetry.Gauge
	days       *telemetry.Counter

	collected       telemetry.CounterVec // by site
	flagged         telemetry.CounterVec // by period
	duplicates      telemetry.CounterVec // by dedup verdict
	doxes           *telemetry.Counter
	pollFailures    telemetry.CounterVec // by site
	monitorFailures *telemetry.Counter

	// Durability instruments (internal/store checkpoints).
	checkpointWrite   *telemetry.Histogram // doxmeter_checkpoint_write_seconds
	checkpointRestore *telemetry.Histogram // doxmeter_checkpoint_restore_seconds
	checkpointBytes   *telemetry.Histogram // doxmeter_checkpoint_bytes

	// Delta-mode instruments: per-cut incremental write latency and
	// size, plus the live length of the delta chain (resets to 0 at
	// every compaction full).
	deltaWrite  *telemetry.Histogram // doxmeter_checkpoint_delta_write_seconds
	deltaBytes  *telemetry.Histogram // doxmeter_checkpoint_delta_bytes
	chainLength *telemetry.Gauge     // doxmeter_checkpoint_chain_length
}

// checkpointSizeBuckets span 4 KiB to 16 MiB — a smoke-test study
// checkpoints in tens of KiB, a full-scale one in megabytes.
var checkpointSizeBuckets = []float64{
	4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
}

func newStudyMetrics(hub *telemetry.Hub) *studyMetrics {
	if hub == nil || hub.Registry == nil {
		return &studyMetrics{}
	}
	reg := hub.Registry
	stage := reg.NewHistogram("doxmeter_stage_seconds",
		"Wall-clock duration of one pipeline stage pass (one study day).",
		nil, "stage")
	doc := reg.NewHistogram("doxmeter_doc_stage_seconds",
		"Per-document wall-clock duration of the CPU-hot stages.",
		nil, "stage")
	return &studyMetrics{
		enabled:      true,
		hub:          hub,
		stagePoll:    stage.With("poll"),
		stagePrepare: stage.With("prepare"),
		stageCommit:  stage.With("commit"),
		stageMonitor: stage.With("monitor"),
		stageEpoch:   stage.With("epoch"),
		docHTML:      doc.With("htmltext"),
		docClassify:  doc.With("classify"),
		docExtract:   doc.With("extract"),
		classifySeconds: reg.NewHistogram("doxmeter_classify_seconds",
			"Per-document latency of the fused classify kernel (tokenize → TF-IDF → margin).",
			nil).With(),
		classifyAllocs: reg.NewGauge("doxmeter_classify_allocs_per_doc",
			"Heap allocations per document across the most recent prepare batch; the fused classify path contributes ~0 at steady state.").With(),
		extractSeconds: reg.NewHistogram("doxmeter_extract_seconds",
			"Per-flagged-document latency of the account extractor (fused single-pass kernel by default).",
			nil).With(),
		extractAllocs: reg.NewGauge("doxmeter_extract_allocs_per_doc",
			"Heap allocations for one representative flagged document re-extracted after each prepare batch; the fused kernel holds this at 0 at steady state.").With(),
		alertLatency: reg.NewHistogram("doxmeter_alert_latency_seconds",
			"End-to-end wall latency from a document's poll returning to its alert being delivered.",
			nil).With(),
		queueDepth: reg.NewGauge("doxmeter_prepare_queue_depth",
			"Documents not yet finished by the per-day prepare worker pool.").With(),
		days: reg.NewCounter("doxmeter_study_days_total",
			"Study days processed.").With(),
		collected: reg.NewCounter("doxmeter_docs_collected_total",
			"Documents committed by the study, by source site.", "site"),
		flagged: reg.NewCounter("doxmeter_docs_flagged_total",
			"Documents the classifier flagged as doxes, by collection period.", "period"),
		duplicates: reg.NewCounter("doxmeter_docs_duplicate_total",
			"Flagged documents suppressed by de-duplication, by verdict.", "verdict"),
		doxes: reg.NewCounter("doxmeter_doxes_unique_total",
			"Unique dox records committed.").With(),
		pollFailures: reg.NewCounter("doxmeter_poll_failures_total",
			"Source polls that failed after the crawler's full retry budget.", "site"),
		monitorFailures: reg.NewCounter("doxmeter_monitor_sweep_failures_total",
			"Monitor sweeps that failed mid-commit.").With(),
		checkpointWrite: reg.NewHistogram("doxmeter_checkpoint_write_seconds",
			"Wall-clock duration of one checkpoint snapshot write.", nil).With(),
		checkpointRestore: reg.NewHistogram("doxmeter_checkpoint_restore_seconds",
			"Wall-clock duration of one checkpoint load + restore.", nil).With(),
		checkpointBytes: reg.NewHistogram("doxmeter_checkpoint_bytes",
			"Encoded size of one checkpoint snapshot in bytes.",
			checkpointSizeBuckets).With(),
		deltaWrite: reg.NewHistogram("doxmeter_checkpoint_delta_write_seconds",
			"Wall-clock duration of one incremental (delta) checkpoint write.", nil).With(),
		deltaBytes: reg.NewHistogram("doxmeter_checkpoint_delta_bytes",
			"Encoded size of one incremental (delta) checkpoint in bytes.",
			checkpointSizeBuckets).With(),
		chainLength: reg.NewGauge("doxmeter_checkpoint_chain_length",
			"Delta cuts since the last full snapshot; a resume replays this many deltas.").With(),
	}
}

// reseed replays the restored study state into the registry counters so
// /metrics and -json read the same totals an uninterrupted run would show.
// Every instrument is nil-safe, so this is a no-op with telemetry off.
func (m *studyMetrics) reseed(s *Study) {
	if m == nil {
		return
	}
	for site, n := range s.CollectedBySite {
		m.collected.With(site).Add(float64(n))
	}
	for p := 1; p < len(s.FlaggedByPeriod); p++ {
		if n := s.FlaggedByPeriod[p]; n > 0 {
			m.flagged.With(strconv.Itoa(p)).Add(float64(n))
		}
	}
	st := s.Deduper.Stats()
	if st.ExactDups > 0 {
		m.duplicates.With(dedup.ExactDuplicate.String()).Add(float64(st.ExactDups))
	}
	if st.AccntDups > 0 {
		m.duplicates.With(dedup.AccountDuplicate.String()).Add(float64(st.AccntDups))
	}
	m.doxes.Add(float64(len(s.Doxes)))
	for site, n := range s.PollFailures {
		m.pollFailures.With(site).Add(float64(n))
	}
	m.monitorFailures.Add(float64(s.MonitorFailures))
	m.days.Add(float64(s.daysDone))
}

// span opens a tracer span under ctx; a no-op passthrough when telemetry is
// off (nil tracer → nil span, and every span method is nil-safe).
func (m *studyMetrics) span(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	if m == nil {
		return ctx, nil
	}
	return m.hub.Trc().StartSpan(ctx, name)
}
