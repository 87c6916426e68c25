package telemetry

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// SpanIDFrom extracts the current span ID ("" if absent).
func SpanIDFrom(ctx context.Context) string {
	if tc := traceCtxFrom(ctx); tc != nil {
		return tc.span
	}
	return ""
}

// TracerFrom extracts the tracer a span start put into the context, so
// deep call sites (enforcer, resilience) can open spans without plumbing
// the tracer through every signature (nil if absent).
func TracerFrom(ctx context.Context) *Tracer {
	if tc := traceCtxFrom(ctx); tc != nil {
		return tc.tracer
	}
	return nil
}

// Tracer mints hierarchical spans and records them into a bounded
// in-process ring (for /debug/spans) plus, optionally, a durable
// Exporter and an OnEnd hook (the controller uses the hook to feed the
// per-stage latency histogram). Safe for concurrent use.
//
// Recording is head-sampled per trace (SetSampleRate): spans of traces
// that lose the draw are still timed — the OnEnd hook fires for every
// span, so latency metrics keep full fidelity — but they skip ID
// minting and are not kept, which removes most of the tracing overhead
// from the publish fan-out. Error spans and spans at or above
// DefaultSlowTail are kept even when their trace is unsampled, so
// post-mortems keep the interesting outliers (their parent links may
// dangle: an unsampled parent that finished fast was already dropped).
// The draw hashes the trace ID, so every process keeps the same
// traces. This keep rule is the only one: the ring and the exporter
// both receive exactly the kept spans.
type Tracer struct {
	log        *SpanLog
	exporter   atomic.Pointer[Exporter]
	onEnd      atomic.Pointer[func(*Span)]
	sampleBits atomic.Uint64 // head-sampling rate, float64 bits
}

// Sampling defaults.
const (
	// DefaultSampleRate is the daemons' head-sampling fraction.
	DefaultSampleRate = 0.1
	// DefaultSlowTail is the duration at which a span is kept whatever
	// its trace's draw.
	DefaultSlowTail = 100 * time.Millisecond
)

// NewTracer creates a tracer whose ring keeps the latest
// DefaultSpanCapacity spans. The sample rate starts at 1 (record
// everything) — embedded and test tracers see every span unless they
// opt into sampling.
func NewTracer() *Tracer {
	t := &Tracer{log: NewSpanLog(DefaultSpanCapacity)}
	t.sampleBits.Store(math.Float64bits(1))
	return t
}

// SetSampleRate sets the head-sampling fraction in [0,1]. 1 records
// every span; 0 records only tail-kept (slow or failed) spans.
func (t *Tracer) SetSampleRate(rate float64) {
	if t == nil {
		return
	}
	if rate < 0 {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	t.sampleBits.Store(math.Float64bits(rate))
}

// SampleRate reports the current head-sampling fraction.
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	return math.Float64frombits(t.sampleBits.Load())
}

// traceSampled is the per-trace recording decision.
func (t *Tracer) traceSampled(trace string) bool {
	return headSampled(trace, math.Float64frombits(t.sampleBits.Load()))
}

// headSampled reports whether trace wins the head-sampling draw. The
// FNV-32a hash of the trace ID is compared against the rate, so the
// decision is identical in every process. The hash is inlined rather
// than using hash/fnv: the hasher object and io.WriteString's []byte
// conversion both allocate, and the draw runs once per span on the
// publish fan-out.
func headSampled(trace string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	h := uint32(2166136261) // FNV-32a offset basis
	for i := 0; i < len(trace); i++ {
		h ^= uint32(trace[i])
		h *= 16777619 // FNV-32a prime
	}
	return float64(h)/float64(1<<32) < rate
}

// Spans exposes the tracer's in-process ring.
func (t *Tracer) Spans() *SpanLog {
	if t == nil {
		return nil
	}
	return t.log
}

// SetExporter attaches a durable span exporter (nil detaches).
func (t *Tracer) SetExporter(e *Exporter) {
	if t != nil {
		t.exporter.Store(e)
	}
}

// SetOnEnd registers a hook invoked for every finished span (nil
// clears). The hook runs on the path that ends the span: keep it
// cheap, and do not retain the *Span beyond the call — it aliases
// pooled memory.
func (t *Tracer) SetOnEnd(fn func(*Span)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.onEnd.Store(nil)
		return
	}
	t.onEnd.Store(&fn)
}

// spanPool recycles ActiveSpan allocations on the publish hot path.
var spanPool = sync.Pool{New: func() any { return new(ActiveSpan) }}

// ActiveSpan is an in-flight span returned by StartSpan. All methods
// are nil-safe so call sites need no tracer-presence checks. Not safe
// for concurrent mutation; the usual shape is start/annotate/End on one
// goroutine.
type ActiveSpan struct {
	tracer *Tracer
	span   Span
	ended  bool
	// sampled is the trace's head-sampling draw: unsampled spans are
	// timed (metrics stay exact) but not recorded unless tail-kept.
	sampled bool
	// attrs holds the first few SetAttr pairs inline so unsampled spans
	// annotate without allocating; overflow falls back to span.Attrs.
	attrs  [4]Attr
	nattrs int
}

// StartSpan opens a child span of the context's current span, under the
// context's trace (minting a trace ID if absent). The returned context
// carries the trace, the tracer and the new span as current, so nested
// StartSpan calls form a tree. End must be called to record the span.
func (t *Tracer) StartSpan(ctx context.Context, stage string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	trace, parent := "", ""
	tc := traceCtxFrom(ctx)
	if tc != nil {
		trace, parent = tc.trace, tc.span
	}
	if trace == "" {
		trace = NewTraceID()
	}
	s := spanPool.Get().(*ActiveSpan)
	*s = ActiveSpan{tracer: t, sampled: t.traceSampled(trace), span: Span{
		Trace:  trace,
		Stage:  stage,
		Parent: parent,
		Start:  time.Now(),
	}}
	if !s.sampled {
		// Nothing below will record either, so the span needs no ID and
		// the context only has to carry {trace, tracer} for propagation;
		// when it already does, it is returned untouched.
		if tc == nil || tc.trace != trace || tc.tracer != t {
			ctx = &traceCtx{Context: ctx, trace: trace, span: parent, tracer: t}
		}
		return ctx, s
	}
	s.span.ID = NewSpanID()
	ctx = &traceCtx{Context: ctx, trace: trace, span: s.span.ID, tracer: t}
	return ctx, s
}

// StartSpanFrom opens a span under an explicitly supplied trace and
// parent span ID, ignoring whatever trace state the context carries.
// It serves the bus-delivery path, where the flow's trace context
// arrives on the message rather than the context: equivalent to
// StartSpan(WithTraceSpan(ctx, trace, parent), stage) at half the
// context allocations — and deliveries run once per subscriber.
func (t *Tracer) StartSpanFrom(ctx context.Context, stage, trace, parent string) (context.Context, *ActiveSpan) {
	if t == nil {
		return WithTraceSpan(ctx, trace, parent), nil
	}
	if trace == "" {
		trace = NewTraceID()
	}
	s := spanPool.Get().(*ActiveSpan)
	*s = ActiveSpan{tracer: t, sampled: t.traceSampled(trace), span: Span{
		Trace:  trace,
		Stage:  stage,
		Parent: parent,
		Start:  time.Now(),
	}}
	cur := parent
	if s.sampled {
		s.span.ID = NewSpanID()
		cur = s.span.ID
	}
	ctx = &traceCtx{Context: ctx, trace: trace, span: cur, tracer: t}
	return ctx, s
}

// StartDetached opens a span under an explicit trace and parent span
// ID without producing a context at all — the fan-out path for
// context-free subscription handlers, where nothing downstream could
// open a child span or read the trace from a context anyway. It is
// StartSpanFrom minus both context allocations, and deliveries run
// once per subscriber per publication.
func (t *Tracer) StartDetached(stage, trace, parent string) *ActiveSpan {
	if t == nil {
		return nil
	}
	if trace == "" {
		trace = NewTraceID()
	}
	s := spanPool.Get().(*ActiveSpan)
	*s = ActiveSpan{tracer: t, sampled: t.traceSampled(trace), span: Span{
		Trace:  trace,
		Stage:  stage,
		Parent: parent,
		Start:  time.Now(),
	}}
	if s.sampled {
		s.span.ID = NewSpanID()
	}
	return s
}

// StartSpan opens a span on the context's tracer. When the context
// carries no tracer it is a no-op that returns (ctx, nil) without
// reading the clock, preserving the zero-cost-when-untraced property.
func StartSpan(ctx context.Context, stage string) (context.Context, *ActiveSpan) {
	return TracerFrom(ctx).StartSpan(ctx, stage)
}

// StartChild opens a child span of s without touching any context —
// for leaf stages (index.put, bus.publish, ...) whose span is never
// the context-propagated parent of anything. It skips both context
// allocations StartSpan pays; on a nil span it returns nil, which all
// ActiveSpan methods tolerate.
func (s *ActiveSpan) StartChild(stage string) *ActiveSpan {
	if s == nil {
		return nil
	}
	c := spanPool.Get().(*ActiveSpan)
	// The child shares the parent's trace, so it inherits the parent's
	// sampling draw instead of re-hashing the trace ID.
	*c = ActiveSpan{tracer: s.tracer, sampled: s.sampled, span: Span{
		Trace:  s.span.Trace,
		Stage:  stage,
		Parent: s.span.ID,
		Start:  time.Now(),
	}}
	if c.sampled {
		c.span.ID = NewSpanID()
	}
	return c
}

// Trace reports the span's trace ID ("" on a nil span).
func (s *ActiveSpan) Trace() string {
	if s == nil {
		return ""
	}
	return s.span.Trace
}

// ID reports the span's own ID ("" on a nil span).
func (s *ActiveSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.span.ID
}

// SetAttr annotates the span. The usual 1-4 attrs live inline in the
// (pooled) ActiveSpan; a heap slice is only built at End, and only for
// spans that are actually recorded — unsampled fan-out spans annotate
// for free.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.nattrs < len(s.attrs) {
		s.attrs[s.nattrs] = Attr{Key: key, Value: value}
		s.nattrs++
		return
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Value: value})
}

// AddEvent records a point-in-time occurrence inside the span.
func (s *ActiveSpan) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.span.Events = append(s.span.Events, SpanEvent{Name: name, At: time.Now(), Attrs: attrs})
}

// SetError marks the span failed. A nil error is ignored.
func (s *ActiveSpan) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.span.Error = err.Error()
}

// End closes the span, records it, and releases it to the pool,
// returning the span's duration (0 on a nil or already-ended span) so
// hot paths need not read the clock a second time for their latency
// metric. Calling End more than once is safe; only the first call
// records.
func (s *ActiveSpan) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	d := time.Since(s.span.Start)
	s.span.Duration = d
	t := s.tracer
	// Unsampled spans are still tail-kept when they failed or ran slow:
	// the outliers a post-mortem needs survive any sampling rate.
	keep := s.sampled || s.span.Error != "" || d >= DefaultSlowTail
	if keep {
		if s.span.ID == "" {
			s.span.ID = NewSpanID()
		}
		if s.nattrs > 0 {
			// Materialize the inline attrs into a heap slice the ring and
			// exporter can own (overflow attrs, if any, follow in order).
			merged := make([]Attr, 0, s.nattrs+len(s.span.Attrs))
			merged = append(merged, s.attrs[:s.nattrs]...)
			merged = append(merged, s.span.Attrs...)
			s.span.Attrs = merged
		}
	} else if s.nattrs > 0 {
		// Only the OnEnd hook will see the span; lend it the inline
		// attrs without allocating. The hook must not retain the slice —
		// it aliases this pooled struct.
		s.span.Attrs = s.attrs[:s.nattrs:s.nattrs]
	}
	t.record(&s.span, keep)
	// The ring and exporter copied the Span, owning their references to
	// any attr/event slices; zeroing this struct before pooling means
	// reuse never aliases them (a fresh SetAttr allocates anew). ended
	// stays true so a stale double-End is a no-op.
	*s = ActiveSpan{ended: true}
	spanPool.Put(s)
	return d
}

// record fans a finished span out to the ring, the exporter and the
// OnEnd hook. The pointer avoids copying the ~170-byte Span once per
// consumer; each consumer copies (or reads) what it needs before
// record returns, because the memory behind sp is pooled. keep gates
// the ring and the exporter; the OnEnd hook fires for every span so
// the latency histograms stay exact under sampling.
func (t *Tracer) record(sp *Span, keep bool) {
	if keep {
		t.log.RecordSpan(*sp)
		if e := t.exporter.Load(); e != nil {
			e.Export(*sp)
		}
	}
	if fn := t.onEnd.Load(); fn != nil {
		(*fn)(sp)
	}
}
