// Package telemetry is the runtime observability substrate of the CSS
// platform: a process-wide metrics registry with Prometheus text-format
// exposition, trace/correlation IDs threaded through the two-phase
// notification → request-for-details flow, an in-process span recorder
// for per-stage timings, and structured logging helpers.
//
// The paper's guarantee is procedural — every notification, request for
// details, PDP decision and gateway fetch must be observable (§4,
// Algorithms 1 & 2) — and this package makes the same flows observable
// at runtime: counters and histograms expose permit/deny rates and
// latencies live, while the trace ID minted at publication (or request)
// time correlates bus deliveries, PDP evaluations, gateway fetches and
// audit records that belong to one logical flow.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind discriminates metric families in the exposition.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds a process's metric families. Safe for concurrent use.
// The zero value is not usable; create registries with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric with its labeled children.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histograms only, in seconds

	mu       sync.RWMutex
	children map[string]*child // keyed by joined label values
}

// child is one (label values) instance of a family.
type child struct {
	values []string // label values, parallel to family.labels

	count atomic.Uint64 // counter value / histogram observation count
	bits  atomic.Uint64 // gauge value (float64 bits)

	// sumNanos is the histogram observation sum in integer nanoseconds:
	// a single atomic add on the observe hot path, where a float64 sum
	// would need a compare-and-swap loop that spins under the 16-way
	// fan-out of a publish. Sub-nanosecond precision is irrelevant for
	// latency histograms; the float sum is reconstructed at scrape time.
	sumNanos atomic.Int64

	bucketCounts []atomic.Uint64 // histogram: per-bucket (non-cumulative)

	// exemplars holds, per bucket (plus one +Inf slot at the end), the
	// most recently sampled traced observation, by value under exMu.
	// Stores are sampled 1-in-exemplarInterval (riding the observation
	// count, no extra atomic) once a slot is seeded, so exMu is taken
	// only on the sampled path and no store allocates.
	exMu      sync.Mutex
	exemplars []Exemplar    // histogram: per bucket + +Inf
	seeded    []atomic.Bool // parallel to exemplars: the slot holds one
}

// Exemplar links a histogram bucket to a recent trace that landed in
// it, in the OpenMetrics exemplar spirit: a p99 spike on /metrics
// becomes a concrete trace ID to pull up in css-trace.
type Exemplar struct {
	Trace string    // trace ID of the sampled observation
	Value float64   // observed value, seconds
	At    time.Time // when it was observed
}

// exemplarInterval samples 1-in-8 traced observations per child once
// every bucket slot has been seeded.
const exemplarInterval = 8

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry used by Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Daemon binaries register
// their metrics here; libraries accept a *Registry so tests can isolate.
func Default() *Registry { return defaultRegistry }

// register returns the family, creating it on first use. Re-registering
// with a different type or label set is a programming error and panics.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v (was %s%v)",
				name, k, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// labelKey joins label values into a map key. 0x1f (unit separator)
// cannot appear in well-formed label values used by this codebase.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// get returns the child for the label values, creating it on first use.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	k := labelKey(values)
	f.mu.RLock()
	c, ok := f.children[k]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[k]; ok {
		return c
	}
	c = &child{values: append([]string(nil), values...)}
	if f.kind == kindHistogram {
		c.bucketCounts = make([]atomic.Uint64, len(f.buckets))
		c.exemplars = make([]Exemplar, len(f.buckets)+1)
		c.seeded = make([]atomic.Bool, len(f.buckets)+1)
	}
	f.children[k] = c
	return c
}

// --- counter ----------------------------------------------------------------

// Counter is a monotonically increasing counter family, optionally
// labeled. All methods are safe for concurrent use.
type Counter struct{ f *family }

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{r.register(name, help, kindCounter, labels, nil)}
}

// Inc increments the counter child identified by the label values.
func (c *Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64, labelValues ...string) {
	c.f.get(labelValues).count.Add(n)
}

// --- gauge ------------------------------------------------------------------

// Gauge is a metric that can go up and down, optionally labeled.
type Gauge struct{ f *family }

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return &Gauge{r.register(name, help, kindGauge, labels, nil)}
}

// Set assigns the gauge value.
func (g *Gauge) Set(v float64, labelValues ...string) {
	g.f.get(labelValues).bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64, labelValues ...string) {
	c := g.f.get(labelValues)
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// --- histogram --------------------------------------------------------------

// DefBuckets are the default latency buckets, in seconds, tuned for the
// platform's in-process µs..s operation range.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Histogram is a duration histogram family with fixed buckets,
// optionally labeled. Observations are recorded in seconds.
type Histogram struct{ f *family }

// Histogram registers (or returns) a histogram family with DefBuckets.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.HistogramBuckets(name, help, DefBuckets, labels...)
}

// HistogramBuckets registers a histogram family with explicit upper
// bounds (in seconds, ascending).
func (r *Registry) HistogramBuckets(name, help string, buckets []float64, labels ...string) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &Histogram{r.register(name, help, kindHistogram, labels, buckets)}
}

// Observe records one observation in seconds.
func (h *Histogram) Observe(seconds float64, labelValues ...string) {
	h.observeChild(h.f.get(labelValues), seconds, "")
}

// ObserveDuration records a time.Duration observation.
func (h *Histogram) ObserveDuration(d time.Duration, labelValues ...string) {
	h.Observe(d.Seconds(), labelValues...)
}

func (h *Histogram) observeChild(c *child, seconds float64, trace string) {
	idx := len(h.f.buckets) // +Inf slot
	for i, ub := range h.f.buckets {
		if seconds <= ub {
			c.bucketCounts[i].Add(1)
			idx = i
			break
		}
	}
	n := c.count.Add(1)
	c.sumNanos.Add(int64(seconds * 1e9))
	if trace == "" {
		return
	}
	if n%exemplarInterval == 0 || !c.seeded[idx].Load() {
		c.exMu.Lock()
		c.exemplars[idx] = Exemplar{Trace: trace, Value: seconds, At: time.Now()}
		c.seeded[idx].Store(true)
		c.exMu.Unlock()
	}
}

// ObserveDurationTrace records a duration observation and, when trace
// is non-empty, considers it as the exemplar of the bucket it lands in.
// A bucket's first traced observation always seeds its exemplar; after
// that, stores are sampled 1-in-exemplarInterval to keep the hot path
// cheap.
func (h *Histogram) ObserveDurationTrace(d time.Duration, trace string, labelValues ...string) {
	h.observeChild(h.f.get(labelValues), d.Seconds(), trace)
}

// HistogramChild is one pre-resolved labeled series of a histogram.
// Observing through it skips the per-call variadic slice, label join
// and child map lookup — worth holding on to for per-span hooks that
// fire many times per request. Obtain via Histogram.Child; safe for
// concurrent use.
type HistogramChild struct {
	h *Histogram
	c *child
}

// Child resolves (creating on first use) the series for labelValues.
func (h *Histogram) Child(labelValues ...string) *HistogramChild {
	return &HistogramChild{h: h, c: h.f.get(labelValues)}
}

// ObserveDurationTrace records a traced duration observation.
func (hc *HistogramChild) ObserveDurationTrace(d time.Duration, trace string) {
	hc.h.observeChild(hc.c, d.Seconds(), trace)
}

// Buckets returns the histogram's upper bounds (in seconds).
func (h *Histogram) Buckets() []float64 {
	return append([]float64(nil), h.f.buckets...)
}

// BucketCounts returns the per-bucket (non-cumulative) counts and the
// total observation count of one child. Observations above the last
// bound are counted only in total.
func (h *Histogram) BucketCounts(labelValues ...string) (counts []uint64, total uint64) {
	c := h.f.get(labelValues)
	counts = make([]uint64, len(c.bucketCounts))
	for i := range c.bucketCounts {
		counts[i] = c.bucketCounts[i].Load()
	}
	return counts, c.count.Load()
}

// --- exposition -------------------------------------------------------------

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and children in stable sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.RUnlock()
	if len(children) == 0 {
		return nil
	}

	var b strings.Builder
	if f.help != "" {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
	for _, c := range children {
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(f.labels, c.values, "", 0), c.count.Load())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, c.values, "", 0),
				formatFloat(math.Float64frombits(c.bits.Load())))
		case kindHistogram:
			var cum uint64
			for i, ub := range f.buckets {
				cum += c.bucketCounts[i].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d%s\n", f.name, labelString(f.labels, c.values, "le", ub), cum, exemplarSuffix(c, i))
			}
			fmt.Fprintf(&b, "%s_bucket%s %d%s\n", f.name, labelString(f.labels, c.values, "le", math.Inf(1)), c.count.Load(), exemplarSuffix(c, len(f.buckets)))
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.values, "", 0),
				formatFloat(float64(c.sumNanos.Load())/1e9))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, c.values, "", 0), c.count.Load())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// exemplarSuffix renders an OpenMetrics-style exemplar annotation
// (` # {trace_id="..."} value timestamp`) for bucket slot i, or "".
func exemplarSuffix(c *child, i int) string {
	if c.exemplars == nil || i >= len(c.exemplars) || !c.seeded[i].Load() {
		return ""
	}
	c.exMu.Lock()
	e := c.exemplars[i]
	c.exMu.Unlock()
	return fmt.Sprintf(` # {trace_id=%q} %s %d.%03d`, e.Trace, formatFloat(e.Value),
		e.At.Unix(), e.At.Nanosecond()/int(time.Millisecond))
}

// labelString renders {k="v",...}, optionally appending an le bound.
func labelString(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslashes, quotes and newlines exactly as the
		// Prometheus text format requires.
		fmt.Fprintf(&b, "%s=%q", n, values[i])
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", leName, formatFloat(le))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders floats the way Prometheus clients do: +Inf for
// infinity, shortest decimal otherwise.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
