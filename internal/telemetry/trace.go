package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NewTraceID mints a fresh correlation identifier: 16 hex characters of
// cryptographic randomness. Trace IDs are minted once per logical flow —
// at Controller.Publish for the notification phase and at RequestDetails
// for the detail phase (the consumer may carry the notification's trace
// into its request to correlate the two) — and travel on the wire
// messages, the audit records, and the X-Trace-Id HTTP header.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; degrade to a
		// process-unique sequence rather than tracing nothing.
		return "seq-" + hex.EncodeToString(fallbackSeq())
	}
	var dst [16]byte
	hex.Encode(dst[:], b[:])
	return string(dst[:])
}

// maxTraceIDLen bounds a trace ID accepted from a caller.
const maxTraceIDLen = 64

// ValidTraceID reports whether a trace ID received from a caller can be
// adopted: 1 to 64 bytes, each printable ASCII other than
// space (0x21-0x7e). Every ID the platform mints or parses passes (16
// hex digits, 32-hex W3C IDs, "seq-..."); one that fails could not
// travel verbatim in the X-Trace-Id header of later calls, and a CR or
// LF in it would split that header.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > maxTraceIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

var fallbackCounter atomic.Uint64

func fallbackSeq() []byte {
	n := fallbackCounter.Add(1)
	return []byte{byte(n >> 40), byte(n >> 32), byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

// spanIDPrefix is a per-process random 4-byte prefix; combined with a
// monotonically increasing counter it yields 16-hex span IDs that are
// unique across processes without paying a crypto/rand read per span
// (publish-path spans are minted several times per request).
var (
	spanIDPrefix  [4]byte
	spanIDCounter atomic.Uint64
)

func init() {
	if _, err := rand.Read(spanIDPrefix[:]); err != nil {
		n := fallbackCounter.Add(1)
		spanIDPrefix = [4]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
	}
	// Start the counter at a random offset so restarts of the same
	// process image do not replay the same (prefix, counter) sequence.
	var off [4]byte
	_, _ = rand.Read(off[:])
	spanIDCounter.Store(uint64(off[0])<<24 | uint64(off[1])<<16 | uint64(off[2])<<8 | uint64(off[3]))
}

const hexDigits = "0123456789abcdef"

// NewSpanID mints a 16-hex span identifier. Unlike NewTraceID it avoids
// crypto/rand on every call: span IDs only need uniqueness, not
// unpredictability, and they are minted on the publish hot path. The
// hex encoding is inlined by hand to keep it to a single allocation.
func NewSpanID() string {
	n := spanIDCounter.Add(1)
	var b [8]byte
	copy(b[:4], spanIDPrefix[:])
	b[4] = byte(n >> 24)
	b[5] = byte(n >> 16)
	b[6] = byte(n >> 8)
	b[7] = byte(n)
	var dst [16]byte
	for i, v := range b {
		dst[i*2] = hexDigits[v>>4]
		dst[i*2+1] = hexDigits[v&0x0f]
	}
	return string(dst[:])
}

// ctxKey is the private context key for the flow's trace state.
type ctxKey struct{}

// traceCtx bundles everything a traced flow carries through a context —
// the trace ID, the current span ID (parent of any span started
// beneath it) and the tracer — under ONE context key, and is itself the
// context that carries them: attaching all three costs one allocation,
// where context.WithValue of the bundle costs two. Publish fan-out
// opens a span per delivery; the difference is measurable.
type traceCtx struct {
	context.Context // the parent
	trace           string
	span            string
	tracer          *Tracer
}

// Value answers the trace state for ctxKey and leaves every other key
// to the parent.
func (c *traceCtx) Value(key any) any {
	if key == (ctxKey{}) {
		return c
	}
	return c.Context.Value(key)
}

func traceCtxFrom(ctx context.Context) *traceCtx {
	tc, _ := ctx.Value(ctxKey{}).(*traceCtx)
	return tc
}

// WithTrace returns a context carrying the trace ID. The current span
// ID and tracer, if any, are preserved.
func WithTrace(ctx context.Context, trace string) context.Context {
	tc := traceCtxFrom(ctx)
	if tc != nil && tc.trace == trace {
		return ctx
	}
	nt := &traceCtx{Context: ctx, trace: trace}
	if tc != nil {
		nt.span, nt.tracer = tc.span, tc.tracer
	}
	return nt
}

// WithTraceSpan returns a context carrying both the trace and the
// current span ID in one step — one allocation on the bus-delivery
// path, where the trace context is rebuilt from the message for every
// delivery. The tracer, if any, is preserved.
func WithTraceSpan(ctx context.Context, trace, span string) context.Context {
	nt := &traceCtx{Context: ctx, trace: trace, span: span}
	if tc := traceCtxFrom(ctx); tc != nil {
		nt.tracer = tc.tracer
	}
	return nt
}

// TraceFrom extracts the trace ID from a context ("" if absent).
func TraceFrom(ctx context.Context) string {
	if tc := traceCtxFrom(ctx); tc != nil {
		return tc.trace
	}
	return ""
}

// Span is one timed stage of a traced flow, e.g. the PDP evaluation or
// the gateway fetch inside a request for details. The identity fields
// (ID, Parent) are optional: spans recorded through the legacy
// SpanLog.Record path have neither and simply hang off the trace root.
type Span struct {
	// Trace correlates the span to its flow.
	Trace string
	// Stage names the pipeline stage ("pdp.decide", "gateway.fetch", ...).
	Stage string
	// ID is the span's own identifier ("" for legacy flat spans).
	ID string
	// Parent is the span ID of the enclosing stage ("" for flow roots).
	Parent string
	// Start is when the stage began.
	Start time.Time
	// Duration is how long the stage took.
	Duration time.Duration
	// Attrs are optional key/value annotations (requester, outcome, ...).
	Attrs []Attr
	// Events are point-in-time occurrences inside the span (a breaker
	// opening, a retry being scheduled).
	Events []SpanEvent
	// Error is the failure that ended the span ("" on success).
	Error string
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanEvent is a point-in-time occurrence recorded inside a span.
type SpanEvent struct {
	Name  string    `json:"name"`
	At    time.Time `json:"at"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// SpanLog is a bounded in-process recorder of recent spans. It is a
// diagnosis aid, not a distributed tracer: the newest spans win, old
// ones are overwritten. Safe for concurrent use.
//
// Large logs are sharded so the concurrent deliveries of a publish
// fan-out record spans without fighting over a single lock; small logs
// (below spanLogShardMin) stay single-sharded and keep exact FIFO
// eviction order.
type SpanLog struct {
	shards []spanLogShard
}

type spanLogShard struct {
	mu   sync.Mutex
	ring []Span
	next uint64 // total spans recorded; next%len(ring) is the write slot

	_ [64]byte // keep neighboring shard locks off one cache line
}

// DefaultSpanCapacity bounds the default span ring.
const DefaultSpanCapacity = 4096

const (
	spanLogShards   = 8 // power of two (shard picking masks)
	spanLogShardMin = 256
)

// NewSpanLog creates a span log keeping the latest capacity spans
// (DefaultSpanCapacity when capacity <= 0).
func NewSpanLog(capacity int) *SpanLog {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	n := spanLogShards
	if capacity < spanLogShardMin {
		n = 1
	}
	per := (capacity + n - 1) / n
	l := &SpanLog{shards: make([]spanLogShard, n)}
	for i := range l.shards {
		l.shards[i].ring = make([]Span, per)
	}
	return l
}

// RecordSpan stores one finished span with full identity and metadata.
func (l *SpanLog) RecordSpan(s Span) {
	if l == nil {
		return
	}
	sh := &l.shards[0]
	if len(l.shards) > 1 {
		// The start timestamp's nanoseconds are as good as a random
		// draw across concurrent recorders, and cost no atomic.
		sh = &l.shards[s.Start.Nanosecond()&(len(l.shards)-1)]
	}
	sh.mu.Lock()
	sh.ring[sh.next%uint64(len(sh.ring))] = s
	sh.next++
	sh.mu.Unlock()
}

// Len returns how many spans are currently retained.
func (l *SpanLog) Len() int {
	total := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		if sh.next < uint64(len(sh.ring)) {
			total += int(sh.next)
		} else {
			total += len(sh.ring)
		}
		sh.mu.Unlock()
	}
	return total
}

// Snapshot returns the retained spans, oldest first (by start time
// when the log is sharded).
func (l *SpanLog) Snapshot() []Span {
	var out []Span
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n := uint64(len(sh.ring))
		if sh.next <= n {
			out = append(out, sh.ring[:sh.next]...)
		} else {
			for j := uint64(0); j < n; j++ {
				out = append(out, sh.ring[(sh.next+j)%n])
			}
		}
		sh.mu.Unlock()
	}
	if len(l.shards) > 1 {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	}
	return out
}
