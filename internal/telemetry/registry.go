package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a concurrent collection of metric families. All methods are
// safe for concurrent use; instrument handles (Counter, Gauge, Histogram)
// are resolved once and then updated lock-free with atomics, so hot paths
// never touch the registry's maps.
//
// Registering the same family twice returns the same family, so independent
// components (five crawlers, four fault injectors) can each declare the
// series they need against one shared registry and meet at export time.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label-name set; series within it
// are keyed by their label values.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending; +Inf implicit

	mu     sync.RWMutex
	series map[string]metric
}

type metric interface {
	write(w io.Writer, f *family, labelVals []string)
}

// seriesKey joins label values with an unprintable separator so distinct
// value tuples can never collide.
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

func splitKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "\x1f")
}

// register finds or creates a family, enforcing that redeclarations agree on
// kind and label names — disagreement is a programming error and panics.
func (r *Registry) register(name, help string, k kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s redeclared with different kind or labels", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: %s redeclared with different labels", name))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, buckets: buckets,
		labels: append([]string(nil), labels...), series: make(map[string]metric)}
	r.families[name] = f
	return f
}

// with resolves one series handle, creating it on first use.
func (f *family) with(mk func() metric, values ...string) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	m, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.series[key]; ok {
		return m
	}
	m = mk()
	f.series[key] = m
	return m
}

// Counter is a monotonically increasing float64. Nil-safe: every method on a
// nil receiver is a no-op.
type Counter struct{ bits atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must be non-negative (not enforced; counters are
// internal instruments, not an API boundary).
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current total; 0 on a nil counter.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *Counter) write(w io.Writer, f *family, vals []string) {
	fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, vals), formatFloat(c.Value()))
}

// Gauge is an instantaneous float64 value. Nil-safe like Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds v (negative allowed).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(w io.Writer, f *family, vals []string) {
	fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, vals), formatFloat(g.Value()))
}

// Histogram is a fixed-bucket histogram: counts per upper bound plus an
// implicit +Inf bucket, a running sum, and quantile estimation by linear
// interpolation inside the winning bucket. Nil-safe like Counter.
type Histogram struct {
	bounds []float64       // ascending upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    Gauge           // float64 accumulator (atomic CAS add)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-quantile (0..1) from the bucket counts, linearly
// interpolating within the winning bucket (lower bound 0 for the first
// bucket, as Prometheus's histogram_quantile does). Values landing in the
// +Inf bucket report the largest finite bound. Returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		inBucketRank := rank - float64(cum-c)
		return lo + (hi-lo)*(inBucketRank/float64(c))
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) write(w io.Writer, f *family, vals []string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelStringWithLE(f.labels, vals, formatFloat(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelStringWithLE(f.labels, vals, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, vals), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, vals), cum)
}

// CounterVec is a counter family; With resolves one labeled series.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family; With resolves one labeled series.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family; With resolves one labeled series.
type HistogramVec struct{ f *family }

// NewCounter declares (or finds) a counter family. A nil registry returns a
// zero vec whose With yields nil instruments, keeping call sites branch-free.
func (r *Registry) NewCounter(name, help string, labels ...string) CounterVec {
	if r == nil {
		return CounterVec{}
	}
	return CounterVec{f: r.register(name, help, counterKind, nil, labels)}
}

// NewGauge declares (or finds) a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) GaugeVec {
	if r == nil {
		return GaugeVec{}
	}
	return GaugeVec{f: r.register(name, help, gaugeKind, nil, labels)}
}

// NewHistogram declares (or finds) a histogram family with the given
// ascending upper bounds (nil means DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) HistogramVec {
	if r == nil {
		return HistogramVec{}
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	return HistogramVec{f: r.register(name, help, histogramKind, bs, labels)}
}

// DefBuckets are latency buckets in seconds, log-spaced from 0.5ms to 10s —
// wide enough for loopback microbenchmarks and injected stalls alike.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// With resolves the series for the given label values; nil on a zero vec.
func (v CounterVec) With(values ...string) *Counter {
	if v.f == nil {
		return nil
	}
	return v.f.with(func() metric { return &Counter{} }, values...).(*Counter)
}

// With resolves the series for the given label values; nil on a zero vec.
func (v GaugeVec) With(values ...string) *Gauge {
	if v.f == nil {
		return nil
	}
	return v.f.with(func() metric { return &Gauge{} }, values...).(*Gauge)
}

// With resolves the series for the given label values; nil on a zero vec.
func (v HistogramVec) With(values ...string) *Histogram {
	if v.f == nil {
		return nil
	}
	f := v.f
	return f.with(func() metric { return newHistogram(f.buckets) }, values...).(*Histogram)
}

// Sum adds up every series of a counter or gauge family (plus histogram
// sums); 0 when the family does not exist. This is what lets an exit
// summary and /metrics agree by construction — both read the same atomics.
func (r *Registry) Sum(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	var total float64
	for _, m := range f.series {
		switch m := m.(type) {
		case *Counter:
			total += m.Value()
		case *Gauge:
			total += m.Value()
		case *Histogram:
			total += m.Sum()
		}
	}
	return total
}

// SumBy returns per-label-value totals for one label of a counter family:
// SumBy("doxmeter_fault_injected_total", "mode") → {"status500": 3, ...}.
func (r *Registry) SumBy(name, label string) map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		return out
	}
	idx := -1
	for i, l := range f.labels {
		if l == label {
			idx = i
		}
	}
	if idx < 0 {
		return out
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	for key, m := range f.series {
		vals := splitKey(key)
		var v float64
		switch m := m.(type) {
		case *Counter:
			v = m.Value()
		case *Gauge:
			v = m.Value()
		case *Histogram:
			v = m.Sum()
		}
		out[vals[idx]] += v
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families and series in sorted order so output is
// stable for tests and diffing.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.series[k].write(w, f, splitKey(k))
		}
		f.mu.RUnlock()
	}
}

// labelString renders {a="x",b="y"}, or "" with no labels.
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelStringWithLE is labelString plus the histogram "le" bound.
func labelStringWithLE(names, values []string, le string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`",`)
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"}`)
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: integers without
// a decimal point, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
