package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
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

// HTTPMetrics are the instruments the middleware records into. A
// request's latency is its server span's, in css_stage_seconds.
type HTTPMetrics struct {
	requests *Counter // route, method, code
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
	}
}

// statusWriter captures the response status for the metrics labels,
// for a ResponseWriter that does not report it itself.
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

func (w *statusWriter) Status() int { return w.status }

// Serving is the instrumentation of one request a server answers, from
// StartServing to End.
type Serving struct {
	m      *HTTPMetrics
	span   *ActiveSpan
	w      interface{ Status() int }
	method string
	route  string
}

// UnmatchedRoute is the route label of a request that matched no route:
// one series for every path nothing serves, so a client cannot add
// series, or put what it sent on /metrics, by making paths up.
const UnmatchedRoute = "unmatched"

// StartServing opens the instrumentation of serving r on route, the
// path of the pattern r matched ("" when it matched none): it parses
// the W3C traceparent header (falling back to X-Trace-Id, minting a
// trace when both are absent), echoes the trace on the answer and opens
// a server span parented under the caller's (none for an unmatched
// request, nor for the scrape, probe and debug endpoints). It returns
// the context that carries the trace, the current span and the tracer
// on top of r's, which the caller puts on r, and the writer to answer
// through: w itself when w reports its status (Status() int, as
// HTTPServer's writer does), else a wrapper that records it. tracer may
// be nil.
func (m *HTTPMetrics) StartServing(tracer *Tracer, w http.ResponseWriter, r *http.Request, route string) (context.Context, http.ResponseWriter, Serving) {
	trace, parent, ok := ParseTraceparent(r.Header.Get(TraceparentHeader))
	if !ok {
		trace = r.Header.Get(TraceHeader)
		if !ValidTraceID(trace) {
			trace = NewTraceID()
		}
	}
	w.Header().Set(TraceHeader, trace)
	s := Serving{m: m, method: r.Method, route: route}
	if route == "" {
		s.route = UnmatchedRoute
	}
	sw, ok := w.(interface{ Status() int })
	if !ok {
		rec := &statusWriter{ResponseWriter: w}
		w, sw = rec, rec
	}
	s.w = sw

	// Trace, caller's span and tracer attach in one context value.
	var ctx context.Context = &traceCtx{Context: r.Context(), trace: trace, span: parent, tracer: tracer}
	if tracer != nil && route != "" && spanWorthy(route) {
		ctx, s.span = tracer.StartSpan(ctx, spanName(s.method, route))
	}
	return ctx, w, s
}

// End closes the instrumentation once the answer is written: the span
// (an error for a 5xx, the status as an attribute for a 4xx), which the
// tracer times and logs when slow, and the per-route counter.
func (s *Serving) End() {
	status := s.w.Status()
	if status == 0 {
		status = http.StatusOK
	}
	if span := s.span; span != nil {
		if status >= 500 {
			span.SetError(fmt.Errorf("http status %d", status))
		} else if status >= 400 {
			span.SetAttr("status", itoa(status))
		}
		span.End()
	}
	s.m.requests.Inc(s.route, s.method, itoa(status))
}

// spanName names the span of a request to route.
func spanName(method, route string) string { return "http " + method + " " + route }

// spanWorthy excludes scrape/probe/debug endpoints from span creation:
// they would dominate the ring without ever being part of a flow.
func spanWorthy(route string) bool {
	switch route {
	case "/metrics", "/healthz", "/slo":
		return false
	}
	return len(route) < 7 || route[:7] != "/debug/"
}

// itoa formats a 3-digit HTTP status without allocating: a slice of
// codes, which holds 000 to 999.
func itoa(n int) string {
	if n < 0 || n > 999 {
		n = 0
	}
	return codes[3*n : 3*n+3]
}

var codes = func() string {
	b := make([]byte, 0, 3000)
	for n := 0; n < 1000; n++ {
		b = append(b, byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
	}
	return string(b)
}()

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
