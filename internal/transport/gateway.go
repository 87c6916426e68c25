package transport

import (
	"context"
	"encoding/xml"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/identity"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/xmlx"
)

// GatewayServer exposes a local cooperation gateway as a web service so
// the data controller can reach it for Algorithm 2:
//
//	POST /gw/get-response — getResponseRequest → privacy-aware detail XML
//	POST /gw/persist      — full detail message from the source system
//	POST /gw/publish      — publish relay (after EnablePublishRelay)
//
// next to the scaffold's operational endpoints (/metrics, /healthz,
// /debug/spans, /slo). Requests pass the telemetry middleware, so a
// controller-side detail request and the gateway-side filtering it
// triggered share one trace ID.
type GatewayServer struct {
	service
	gw     *gateway.Gateway
	tracer *telemetry.Tracer
	// controllerActor is the actor get-response callers must cover when
	// authentication is on (the data controller); persist and publish
	// callers must cover the owning producer.
	controllerActor event.Actor
	// publisher, when set via EnablePublishRelay, backs POST /gw/publish:
	// the producer-side durable outbox toward the data controller.
	publisher *QueuedPublisher
}

// NewGatewayServer wraps a gateway, recording telemetry into reg (the
// daemon passes telemetry.Default(), tests a private registry).
func NewGatewayServer(gw *gateway.Gateway, reg *telemetry.Registry) *GatewayServer {
	s := &GatewayServer{service: service{classify: gwRouteClassFor, now: time.Now},
		gw: gw, tracer: telemetry.NewTracer()}
	s.mount(reg, s.tracer, "css_gateway", "gateway", nil)
	s.handle("POST /gw/get-response", s.handleGetResponse)
	s.handle("POST /gw/persist", s.handlePersist)
	s.handle("POST /gw/publish", s.handlePublishRelay)
	return s
}

// Tracer exposes the gateway server's tracer so daemons can attach a
// span exporter.
func (s *GatewayServer) Tracer() *telemetry.Tracer { return s.tracer }

// EnablePublishRelay mounts POST /gw/publish backed by qp: the source
// system hands its notification to the *local* gateway, which forwards
// it to the data controller — or parks it durably when the controller
// is down (202 Accepted, empty event id). Call during setup, before
// serving. The outbox depth joins /healthz automatically.
func (s *GatewayServer) EnablePublishRelay(qp *QueuedPublisher) {
	s.publisher = qp
	s.AddHealthDetail(func() map[string]string {
		return map[string]string{
			"outbox_depth": strconv.Itoa(qp.Depth()),
			"outbox_dead":  strconv.Itoa(qp.Dead()),
		}
	})
}

// RequireAuth restricts the gateway's endpoints: only tokens covering
// controllerActor may retrieve filtered details (the data controller is
// the single authorized caller of Algorithm 2), and only tokens covering
// the owning producer may persist. Without it the gateway trusts its
// network perimeter, which is only acceptable in single-process
// deployments.
func (s *GatewayServer) RequireAuth(a *identity.Authority, controllerActor event.Actor) *GatewayServer {
	s.auth = a
	s.controllerActor = controllerActor
	return s
}

// handlePersist lets the producer's source system hand a full detail
// message to the gateway over HTTP. In a deployment this endpoint faces
// the source system only, never the platform.
func (s *GatewayServer) handlePersist(w http.ResponseWriter, r *http.Request, who bearer) {
	if err := who.covers(event.Actor(s.gw.Producer())); err != nil {
		writeAuthFault(w, err)
		return
	}
	d, err := readBodyAs(r, event.DecodeDetail)
	if err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	if err := s.gw.Persist(d); err != nil {
		writeFault(w, event.XML, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePublishRelay accepts a notification from the source system and
// forwards it to the data controller through the durable outbox: 200
// with the assigned event id when the controller answered directly, 202
// with an empty id when the notification was parked for later delivery.
// Only the owning producer's bearer may publish through its gateway.
func (s *GatewayServer) handlePublishRelay(w http.ResponseWriter, r *http.Request, who bearer) {
	if s.publisher == nil {
		writeXML(w, http.StatusNotFound, &Fault{Code: CodeNotFound, Message: "publish relay not enabled"})
		return
	}
	if err := who.covers(event.Actor(s.gw.Producer())); err != nil {
		writeAuthFault(w, err)
		return
	}
	n, err := readBodyAs(r, event.DecodeNotification)
	if err == nil {
		err = checkTrace(n.Trace)
	}
	if err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	if n.Trace == "" {
		// Stamp the relay request's trace onto the notification before the
		// outbox may park it: the parked redelivery runs under a background
		// context, so the trace must travel on the notification itself for
		// the flow to stay stitched end to end.
		n.Trace = telemetry.TraceFrom(r.Context())
	}
	gid, queued, err := s.publisher.Publish(r.Context(), n)
	if err != nil {
		writeFault(w, event.XML, err)
		return
	}
	status := http.StatusOK
	if queued {
		status = http.StatusAccepted
	}
	writeEnvelope(w, event.XML, status, &publishResponse{EventID: gid})
}

func (s *GatewayServer) handleGetResponse(w http.ResponseWriter, r *http.Request, who bearer) {
	if err := who.covers(s.controllerActor); err != nil {
		writeAuthFault(w, err)
		return
	}
	req, err := readBodyAs(r, func(data []byte) (*getResponseRequest, error) {
		return xmlx.Decode(data, readGetResponseRequest, xml.Unmarshal)
	})
	if err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	d, err := s.gw.GetResponse(req.Source, req.Fields)
	if err != nil {
		writeFault(w, event.XML, err)
		return
	}
	// Detail payloads honor the controller's Accept preference: the
	// request stays XML (it is tiny), the response — the bulky part of
	// Algorithm 2 — travels in the negotiated codec.
	resp := responseCodec(r, event.XML)
	out, err := resp.EncodeDetail(d)
	if err != nil {
		writeFault(w, event.XML, err)
		return
	}
	writeBody(w, http.StatusOK, respContentType(resp), out)
}

// RemoteGateway is the controller-side client of a GatewayServer. It
// implements enforcer.DetailSource, so a remote producer plugs into the
// enforcement pipeline exactly like an in-process gateway. Each
// GetResponse call is one HTTP round-trip, and nothing is retained once
// it returns — the client never caches details (controller-side
// storage of event details is prohibited; see the E13 ablation).
//
// With WithRetrier / WithBreakerGroup, fetches retry transient failures
// and the gateway is guarded by a circuit breaker named after its base
// URL. When the gateway stays unreachable, errors satisfy
// errors.Is(err, enforcer.ErrSourceUnavailable), so the controller
// audits the outcome as "unavailable" — never as a policy denial.
type RemoteGateway struct {
	caller
}

// NewRemoteGateway creates a client for the gateway at base. Pass
// WithRetrier / WithBreakerGroup to make the controller→gateway hop
// fault-tolerant, WithTimeout to bound each attempt.
func NewRemoteGateway(base string, httpClient *http.Client, opts ...Option) *RemoteGateway {
	return &RemoteGateway{caller: newCaller(base, httpClient, opts)}
}

// WithToken returns a copy of the remote gateway client that presents
// the bearer token (the controller's identity) on every call. Retry
// policy and breakers stay shared — the endpoint's health is
// identity-independent.
func (g *RemoteGateway) WithToken(token string) *RemoteGateway {
	return &RemoteGateway{caller: g.withToken(token)}
}

// post sends one XML request to the gateway under the breaker named
// after its base URL — one circuit per producer gateway, surfaced on
// /healthz. The Accept preference asks for detail payloads in the
// negotiated codec; responses are sniffed, so either format decodes.
func (g *RemoteGateway) post(ctx context.Context, path, trace string, body []byte, decode func([]byte) error) error {
	return g.do(ctx, g.base, http.MethodPost, g.baseURL, path, event.ContentTypeXML, g.codec.ContentType(), trace, body, decode)
}

// Persist ships a full detail message to the gateway's persist endpoint
// (source-system side).
func (g *RemoteGateway) Persist(ctx context.Context, d *event.Detail) error {
	body, err := event.EncodeDetail(d)
	if err != nil {
		return err
	}
	return g.post(ctx, "/gw/persist", "", body, nil)
}

// GetResponse implements enforcer.DetailSource over HTTP. The interface
// carries no context, so the fetch runs under the configured per-attempt
// timeout times the retry allowance.
func (g *RemoteGateway) GetResponse(src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	return g.GetResponseContext(context.Background(), "", src, fields)
}

// GetResponseContext implements enforcer.ContextDetailSource with one
// round-trip of Algorithm 2: the consumer's deadline rides the fetch end
// to end — it cancels the HTTP round-trip (and any retry sleeps) the
// moment the caller gives up — and the flow's trace crosses the process
// boundary in the request headers, so the gateway-side spans and
// metrics of the fetch correlate with the controller-side detail
// request.
func (g *RemoteGateway) GetResponseContext(ctx context.Context, trace string, src event.SourceID, fields []event.FieldName) (d *event.Detail, err error) {
	req := getResponseRequest{Source: src, Fields: fields}
	err = g.post(ctx, "/gw/get-response", trace, req.appendXML(make([]byte, 0, 256)), func(data []byte) (derr error) {
		d, derr = decodeAnyDetail(data)
		return derr
	})
	switch {
	case err == nil:
		return d, nil
	case ctx.Err() != nil:
		// The caller's deadline (or hang-up) cut the fetch short: that
		// is the caller's condition, not the producer's unavailability.
		return nil, ctx.Err()
	case resilience.Retryable(err):
		// The producer side never answered (or answered 5xx): report
		// unavailability, keeping the cause in the chain.
		return nil, fmt.Errorf("%w: %w", enforcer.ErrSourceUnavailable, err)
	}
	return nil, err
}

// encodeXML marshals v, reporting marshalling problems with context.
func encodeXML(v any) ([]byte, error) {
	data, err := xml.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return data, nil
}
