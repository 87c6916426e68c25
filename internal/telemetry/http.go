package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// TraceHeader is the HTTP header carrying the trace/correlation ID
// across process boundaries: clients may set it; servers echo it on
// responses and mint a fresh ID when absent.
const TraceHeader = "X-Trace-Id"

// TraceparentHeader is the W3C trace-context header carrying both the
// trace ID and the caller's span ID, so spans opened on the server side
// parent correctly under the client's span. X-Trace-Id remains as the
// human-friendly legacy header; traceparent wins when both are present.
const TraceparentHeader = "traceparent"

// FormatTraceparent renders a W3C traceparent value. The platform's
// 16-hex trace IDs are left-padded to the 32-hex wire width; span is a
// 16-hex span ID ("" becomes all-zero, meaning "no parent").
func FormatTraceparent(trace, span string) string {
	if len(trace) < 32 {
		trace = zeros32[:32-len(trace)] + trace
	}
	if span == "" {
		span = zeros32[:16]
	}
	return "00-" + trace + "-" + span + "-01"
}

const zeros32 = "00000000000000000000000000000000"

// ParseTraceparent extracts (trace, parent span) from a traceparent
// value. Padded 16-hex platform trace IDs are unpadded back; foreign
// full-width IDs are kept verbatim. ok is false on malformed input.
func ParseTraceparent(v string) (trace, span string, ok bool) {
	// version "-" trace(32) "-" span(16) "-" flags
	if len(v) < 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", "", false
	}
	if v[:2] == "ff" {
		return "", "", false
	}
	trace, span = v[3:35], v[36:52]
	if !isHex(trace) || !isHex(span) {
		return "", "", false
	}
	if trace == zeros32 || span == zeros32[:16] {
		return "", "", false
	}
	if trace[:16] == zeros32[:16] {
		trace = trace[16:]
	}
	return trace, span, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// HTTPMetrics are the instruments the middleware records into.
type HTTPMetrics struct {
	requests *Counter   // route, method, code
	latency  *Histogram // route
	inflight *Gauge
}

// NewHTTPMetrics registers the HTTP server metrics on reg under the
// given subsystem prefix (e.g. "css" → css_http_requests_total).
func NewHTTPMetrics(reg *Registry, subsystem string) *HTTPMetrics {
	if subsystem == "" {
		subsystem = "css"
	}
	return &HTTPMetrics{
		requests: reg.Counter(subsystem+"_http_requests_total",
			"HTTP requests served, by route, method and status code.",
			"route", "method", "code"),
		latency: reg.Histogram(subsystem+"_http_request_seconds",
			"HTTP request latency in seconds, by route.", "route"),
		inflight: reg.Gauge(subsystem+"_http_inflight_requests",
			"HTTP requests currently being served."),
	}
}

// statusWriter captures the response status for the metrics labels.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// TracingMiddleware wraps next with request instrumentation and
// distributed tracing: per-route latency and status counters, the
// in-flight gauge and the slow-request log; it parses the W3C
// traceparent header (falling back to X-Trace-Id, minting when both are
// absent) into the request context and the response header, attaches
// the tracer, opens a server span parented under the caller's span, and
// records the request latency with the trace as exemplar. tracer may be
// nil.
func TracingMiddleware(m *HTTPMetrics, tracer *Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, ok := ParseTraceparent(r.Header.Get(TraceparentHeader))
		if !ok {
			trace = r.Header.Get(TraceHeader)
			if !ValidTraceID(trace) {
				trace = NewTraceID()
			}
		}
		w.Header().Set(TraceHeader, trace)
		route := r.URL.Path

		// Trace, caller's span and tracer attach in one context value
		// (in-package fast path; external callers use WithTrace et al).
		ctx := context.WithValue(r.Context(), ctxKey{},
			&traceCtx{trace: trace, span: parent, tracer: tracer})
		var span *ActiveSpan
		if tracer != nil && spanWorthy(route) {
			ctx, span = tracer.StartSpan(ctx, "http "+r.Method+" "+route)
		}
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		m.inflight.Add(1)
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		m.inflight.Add(-1)

		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if span != nil {
			if sw.status >= 500 {
				span.SetError(fmt.Errorf("http status %d", sw.status))
			} else if sw.status >= 400 {
				span.SetAttr("status", itoa(sw.status))
			}
			span.End()
		}
		m.requests.Inc(route, r.Method, itoa(sw.status))
		m.latency.ObserveDurationTrace(elapsed, trace, route)
		LogIfSlow("http "+r.Method+" "+route, trace, elapsed)
	})
}

// spanWorthy excludes scrape/probe/debug endpoints from span creation:
// they would dominate the ring without ever being part of a flow.
func spanWorthy(route string) bool {
	switch route {
	case "/metrics", "/healthz", "/slo":
		return false
	}
	return len(route) < 7 || route[:7] != "/debug/"
}

// itoa formats a 3-digit HTTP status without fmt.
func itoa(n int) string {
	if n < 0 || n > 999 {
		n = 0
	}
	return string([]byte{byte('0' + n/100), byte('0' + n/10%10), byte('0' + n%10)})
}

// SpansHandler serves the span ring as JSONL (one SpanRecord per
// line), newest last. Filters: ?trace=<id>, ?stage=<prefix>,
// ?limit=<n> (most recent n after filtering). proc labels each record
// with the serving process. This is what cmd/css-trace scrapes when
// pointed at a live daemon instead of an export file.
func SpansHandler(log *SpanLog, proc string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		trace, stagePrefix := q.Get("trace"), q.Get("stage")
		limit := 0
		if s := q.Get("limit"); s != "" {
			fmt.Sscanf(s, "%d", &limit)
		}
		spans := log.Snapshot()
		out := spans[:0]
		for _, s := range spans {
			if trace != "" && s.Trace != trace {
				continue
			}
			if stagePrefix != "" && !hasPrefix(s.Stage, stagePrefix) {
				continue
			}
			out = append(out, s)
		}
		if limit > 0 && len(out) > limit {
			out = out[len(out)-limit:]
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, s := range out {
			enc.Encode(ToRecord(s, proc))
		}
	})
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// MetricsHandler serves the registry in Prometheus text format.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
}

// HealthzDetailHandler serves a liveness/readiness probe: 200 "ok"
// while check returns nil (a nil check is always healthy), 503 with the
// error otherwise. The pairs of the optional detail function follow as
// sorted "key: value" lines (circuit breaker states, outbox depth, …),
// so degraded modes are visible from one curl. The detail lines are
// printed for unhealthy responses too — that is when they matter most.
func HealthzDetailHandler(check func() error, detail func() map[string]string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		status := http.StatusOK
		head := "ok\n"
		if check != nil {
			if err := check(); err != nil {
				status = http.StatusServiceUnavailable
				head = "unhealthy: " + err.Error() + "\n"
			}
		}
		w.WriteHeader(status)
		io.WriteString(w, head)
		if detail == nil {
			return
		}
		kv := detail()
		keys := make([]string, 0, len(kv))
		for k := range kv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s: %s\n", k, kv[k])
		}
	})
}

// RegisterPprof mounts the net/http/pprof handlers on mux under
// /debug/pprof/. Profiling is opt-in per binary (-pprof): the endpoints
// expose stacks and heap contents, so they must never be reachable on a
// deployment's public interface.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
