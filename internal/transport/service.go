package transport

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/identity"
	"repro/internal/overload"
	"repro/internal/telemetry"
)

// service is the web-service scaffold both roles of the paper's SOA
// layer — the data controller (Server) and the local cooperation gateway
// (GatewayServer) — are built on: the route mux, bearer verification,
// the admission gate, the /healthz detail registry, the operational
// mounts (/metrics, /healthz, /debug/spans, /slo) and the tracing and
// admission middleware. A role contributes its API routes (handle), its
// admission profile (classify) and its clock; nothing here knows which
// role it serves.
type service struct {
	mux     *http.ServeMux
	metrics *telemetry.HTTPMetrics
	tracer  *telemetry.Tracer
	// classify maps an API path to its admission profile.
	classify func(path string) routeClass
	// now is the clock token expiry is checked against.
	now func() time.Time
	// auth, when set by the role's RequireAuth, authenticates every API
	// call; the operational mounts stay open (they carry counters and
	// span timings only, never personal data).
	auth *identity.Authority
	// gate, when set via SetAdmission, sheds API calls beyond capacity
	// and refuses new work while draining.
	gate *overload.Gate
	// healthMu guards healthDetails (registered at setup, read per probe).
	healthMu sync.Mutex
	// healthDetails contribute key/value lines to /healthz (breaker
	// states of attached remote gateways, outbox depths, SLO burn, …).
	healthDetails []func() map[string]string
}

// mount builds the mux with the operational endpoints and the
// instruments of the middleware (see ServeHTTP). subsystem prefixes the
// HTTP metrics recorded into reg, proc labels the spans /debug/spans
// serves, and healthy (nil: always) decides between 200 and 503 on
// /healthz.
func (s *service) mount(reg *telemetry.Registry, tracer *telemetry.Tracer, subsystem, proc string, healthy func() error) {
	s.mux = http.NewServeMux()
	s.mux.Handle("GET /metrics", telemetry.MetricsHandler(reg))
	s.mux.Handle("GET /healthz", telemetry.HealthzDetailHandler(healthy, s.healthDetail))
	s.mux.Handle("GET /debug/spans", telemetry.SpansHandler(tracer.Spans(), proc))
	s.metrics, s.tracer = telemetry.NewHTTPMetrics(reg, subsystem), tracer
}

// ServeHTTP implements http.Handler: the tracing and metrics of
// telemetry.StartServing around the admission gate (so shed requests,
// 429, show up in the per-route HTTP metrics) around the route. The
// route is looked up once, first, so the metrics and the span are named
// after the pattern it matched, never after a path the client chose.
// It runs under one context derived from the request's: the trace, the
// caller's span and the tracer, and the admitted endpoint's deadline.
func (s *service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h, pattern := s.mux.Handler(r)
	if r.RequestURI == "*" {
		h, pattern = refuseAsterisk, "" // as ServeMux.ServeHTTP refuses it
	}
	// A pattern is "METHOD /path"; its path part labels the request.
	ctx, w, served := s.metrics.StartServing(s.tracer, w, r, pattern[strings.IndexByte(pattern, ' ')+1:])
	if g := s.gate; g != nil && !exemptFromAdmission(r.URL.Path) {
		rc := s.classify(r.URL.Path)
		release, d := g.Admit(rc.endpoint, rc.pri, actorKey(r))
		if !d.Admitted {
			w.Header().Set("Retry-After", overload.RetryAfterSeconds(d.RetryAfter))
			writeXML(w, http.StatusTooManyRequests, &Fault{
				Code:    CodeOverloaded,
				Message: "transport: overloaded (" + d.Reason + "), retry later",
			})
			served.End()
			return
		}
		defer release()
		if rc.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, rc.deadline)
			defer cancel()
		}
	}
	h.ServeHTTP(w, r.WithContext(ctx))
	served.End()
}

// refuseAsterisk answers a request for "*" (OPTIONS *), which
// ServeMux.Handler would redirect to "/*".
var refuseAsterisk = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Connection", "close")
	w.WriteHeader(http.StatusBadRequest)
})

// handle mounts one API route. The bearer token is verified before the
// handler — and therefore before any body is read or decoded — on every
// route alike; the handler receives the verified caller and checks, once
// it knows which identity the request claims, that the token covers it.
func (s *service) handle(pattern string, h func(http.ResponseWriter, *http.Request, bearer)) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		who, err := s.authenticate(r)
		if err != nil {
			writeAuthFault(w, err)
			return
		}
		h(w, r, who)
	})
}

// AddHealthDetail registers a detail contributor for /healthz: its
// key/value pairs are appended to every probe response. Daemons use it
// to surface circuit-breaker states and outbox depth next to liveness.
func (s *service) AddHealthDetail(fn func() map[string]string) {
	s.healthMu.Lock()
	s.healthDetails = append(s.healthDetails, fn)
	s.healthMu.Unlock()
}

// healthDetail merges the registered contributors.
func (s *service) healthDetail() map[string]string {
	s.healthMu.Lock()
	fns := make([]func() map[string]string, len(s.healthDetails))
	copy(fns, s.healthDetails)
	s.healthMu.Unlock()
	out := make(map[string]string)
	for _, fn := range fns {
		for k, v := range fn() {
			out[k] = v
		}
	}
	return out
}

// SetSLO mounts the latency-objective report at GET /slo and adds a
// one-line burn-rate summary to /healthz. Call before serving.
func (s *service) SetSLO(slo *telemetry.SLO) {
	s.mux.Handle("GET /slo", telemetry.SLOHandler(slo))
	s.AddHealthDetail(func() map[string]string {
		return map[string]string{"slo": slo.HealthDetail()}
	})
}

// SetAdmission installs an overload gate in front of every API route.
// Shed requests are answered fail-fast with a 429 overloaded fault and a
// Retry-After hint (the client retriers honor it); admitted requests run
// under the endpoint's default deadline, which flows through r.Context()
// into the handlers. /metrics and /healthz stay exempt. Call during
// setup, before serving; a nil gate disables admission control.
func (s *service) SetAdmission(g *overload.Gate) {
	s.gate = g
}
