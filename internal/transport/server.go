package transport

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/identity"
	"repro/internal/index"
	"repro/internal/overload"
	"repro/internal/policy"
	"repro/internal/replication"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/xmlx"
)

// Server exposes a data controller as web services:
//
//	POST /ws/publish     — notification XML → publishResponse
//	POST /ws/subscribe   — subscribeRequest (with callback URL) → subscribeResponse
//	GET  /ws/subscription — ?id= liveness probe: held → subscribeResponse,
//	                        forgotten → unknown-subscription fault (404)
//	POST /ws/details     — detail request XML → privacy-aware detail XML
//	POST /ws/inquire     — inquiryRequest → inquiryResponse
//	POST /ws/policy      — compact policy XML → stored policy XML
//	POST /ws/consent     — consent directive XML → stored directive XML
//	GET  /ws/catalog     — event class schemas (XML sequence)
//	GET  /ws/pending     — ?producer=ID → pending access requests
//	GET  /ws/policies    — ?producer=ID → the producer's policy corpus
//	GET  /ws/audit       — ?actor=&kind=&outcome=&event=&class=&trace=&limit= →
//	                       audit records (guarantor role when auth is on)
//	GET  /ws/shardmap    — the cluster's shard map as a binary frame
//	                       (a lone controller's is version 0, one shard)
//	GET  /ws/replstatus  — replication role, fencing epoch, follower lag
//	POST /ws/promote     — flip a replica into the primary role at a
//	                       named epoch (the failover runbook's lease claim)
//
// next to the scaffold's operational endpoints: GET /metrics (telemetry
// registry, Prometheus text format), /healthz (200 ok / 503 when
// closed), /debug/spans and /slo, served without authentication — they
// carry operational counters only, never personal data.
//
// A replica is a standby: publish, subscribe, details, inquire, policy
// and consent answer the not-primary fault (HTTP 421) naming the shard
// and map version, so every notification or detail is disclosed, and
// audited, by a primary. The other routes answer on either role; none
// of them returns a notification.
//
// Every request passes the telemetry middleware: per-route latency and
// status metrics, and an X-Trace-Id correlation header (minted when the
// caller sent none) that flows into the controller's audit records.
//
// Notifications are delivered to subscribers by POSTing the notification
// to the callback URL supplied at subscription time, in the codec the
// subscription negotiated, once: a failed delivery is logged and counted,
// not retried.
type Server struct {
	service
	ctrl *core.Controller
	// callbacks performs the callback deliveries: the shared call path
	// with no base URL (each subscription names its own), no token, no
	// retrier.
	callbacks caller
	// deliveriesFailed counts callback deliveries that did not reach the
	// subscriber (css_deliveries_failed_total{reason}).
	deliveriesFailed *telemetry.Counter
	// node, when set via SetNode, is the replication node /ws/replstatus
	// reports and /ws/promote drives.
	node *replication.Node
}

// NewServer wraps a controller.
func NewServer(ctrl *core.Controller) *Server {
	s := &Server{
		service: service{classify: routeClassFor, now: ctrl.Now},
		ctrl:    ctrl,
		// Callback deliveries share one round tripper and its warm
		// keep-alive pool: the same few subscriber hosts receive every
		// notification, and each delivery is written and its answer
		// read on the bus worker's own goroutine.
		callbacks: newCaller("", nil, nil),
		deliveriesFailed: ctrl.Metrics().Counter("css_deliveries_failed_total",
			"Callback deliveries that failed to reach the subscriber, by reason.",
			"reason"),
	}
	s.mount(ctrl.Metrics(), ctrl.Tracer(), "css", "controller", ctrl.Healthy)
	s.handle("POST /ws/publish", s.handlePublish)
	s.handle("POST /ws/subscribe", s.handleSubscribe)
	s.handle("POST /ws/details", s.handleDetails)
	s.handle("POST /ws/inquire", s.handleInquire)
	s.handle("POST /ws/policy", s.handlePolicy)
	s.handle("POST /ws/consent", s.handleConsent)
	s.handle("GET /ws/catalog", s.handleCatalog)
	s.handle("GET /ws/pending", s.handlePending)
	s.handle("GET /ws/audit", s.handleAudit)
	s.handle("GET /ws/policies", s.handlePolicies)
	s.handle("GET /ws/subscription", s.handleSubscriptionProbe)
	s.handle("GET /ws/shardmap", s.handleShardMap)
	s.handle("GET /ws/replstatus", s.handleReplStatus)
	s.handle("POST /ws/promote", s.handlePromote)
	return s
}

// RequireAuth attaches an identity authority: from now on the server
// authenticates every /ws call. It returns the server for chaining.
func (s *Server) RequireAuth(a *identity.Authority) *Server {
	s.auth = a
	return s
}

// SetAdmission installs the overload gate (see service.SetAdmission) and
// returns the server for chaining.
func (s *Server) SetAdmission(g *overload.Gate) *Server {
	s.service.SetAdmission(g)
	return s
}

// GuarantorRole is the token role required to query the audit trail
// remotely when authentication is enabled (the privacy guarantor's
// inquiry, §1/§4).
const GuarantorRole = "privacy-guarantor"

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request, who bearer) {
	body, err := readRaw(r)
	if err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	codec := requestCodec(r, body)
	resp := responseCodec(r, codec)
	n, err := codec.DecodeNotification(body)
	if err != nil {
		badRequest(w, resp, err.Error())
		return
	}
	if err := checkTrace(n.Trace); err != nil {
		badRequest(w, resp, err.Error())
		return
	}
	if err := who.covers(event.Actor(n.Producer)); err != nil {
		writeAuthFault(w, err)
		return
	}
	if n.Trace == "" {
		// Adopt the HTTP request's correlation ID (minted by the
		// middleware when the producer sent none) as the flow trace.
		n.Trace = telemetry.TraceFrom(r.Context())
	}
	gid, err := s.ctrl.PublishContext(r.Context(), n)
	if err != nil {
		writeFault(w, resp, err)
		return
	}
	writeEnvelope(w, resp, http.StatusOK, &publishResponse{EventID: gid})
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request, who bearer) {
	body, err := readRaw(r)
	if err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	resp := responseCodec(r, requestCodec(r, body))
	req, err := decodeEnvelope(body, readSubscribeRequest)
	if err != nil {
		badRequest(w, resp, err.Error())
		return
	}
	callback, err := parseCallback(req.Callback)
	if err != nil {
		badRequest(w, resp, err.Error())
		return
	}
	// The callback codec is negotiated once here; every delivery to this
	// subscriber reuses it without per-message negotiation.
	cbCodec, err := event.CodecByName(req.Codec)
	if err != nil {
		badRequest(w, resp, err.Error())
		return
	}
	if err := who.covers(req.Actor); err != nil {
		writeAuthFault(w, err)
		return
	}
	subscriber := string(req.Actor)
	sub, err := s.ctrl.SubscribeCtx(req.Actor, req.Class, func(ctx context.Context, n *event.Notification) {
		s.deliver(ctx, callback, subscriber, cbCodec, n)
	})
	if err != nil {
		writeFault(w, resp, err)
		return
	}
	writeEnvelope(w, resp, http.StatusOK, &subscribeResponse{ID: sub.ID()})
}

// parseCallback accepts a callback only where a delivery can go: an
// absolute http or https URL that names a host. Refused here, before
// the subscription is made or audited, such a callback would take a
// subscription id and fail every delivery. Accepted, it is parsed once
// for every delivery of the subscription.
func parseCallback(callback string) (*url.URL, error) {
	u, err := url.Parse(callback)
	if err != nil || u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
		return nil, errors.New("transport: callback must be an absolute http or https URL with a host: " + strconv.Quote(callback))
	}
	return u, nil
}

// checkTrace refuses a flow trace that the X-Trace-Id header of every
// callback and gateway fetch could not carry verbatim (see
// telemetry.ValidTraceID); empty means the controller mints one.
func checkTrace(trace string) error {
	if trace != "" && !telemetry.ValidTraceID(trace) {
		return errors.New("transport: trace id must be 1-64 printable ASCII bytes without spaces: " + strconv.Quote(trace))
	}
	return nil
}

// deliver POSTs the notification to the subscriber's endpoint,
// forwarding the flow's trace ID in the X-Trace-Id header and the
// delivery span in the W3C traceparent header, so spans the consumer
// opens while handling the callback parent under this flow's
// bus.deliver span. The controller-side handler signature is
// fire-and-forget — the paper's temporal decoupling is provided by the
// events index, which the consumer can inquire to catch up — but a
// failed delivery is never silent: it is logged with the trace ID and
// counted in css_deliveries_failed_total so operators see subscriber
// outages.
func (s *Server) deliver(ctx context.Context, callback *url.URL, subscriber string, codec event.Codec, n *event.Notification) {
	reason := "encode"
	body, err := codec.EncodeNotification(n)
	if err == nil {
		err = s.callbacks.do(ctx, callback.Host, http.MethodPost, callback, "", codec.ContentType(), "", n.Trace, body, nil)
		if err == nil {
			return
		}
		// What failed: reaching the subscriber, or the subscriber's
		// answer.
		reason = "status"
		if ue := (*url.Error)(nil); errors.As(err, &ue) {
			reason = "connect"
		}
	}
	s.deliveryFailed(n, subscriber, callback.String(), reason, err)
}

// deliveryFailed counts and logs a delivery that failed for reason.
func (s *Server) deliveryFailed(n *event.Notification, subscriber, callback, reason string, err error) {
	s.deliveriesFailed.Inc(reason)
	telemetry.Logger().Error("callback delivery failed",
		"trace", n.Trace, "event", string(n.ID), "class", string(n.Class),
		"subscriber", subscriber, "callback", callback, "reason", reason, "err", err)
}

// handleSubscriptionProbe answers a consumer's liveness check for its
// subscription (?id=). Subscriptions are controller memory; after a
// restart this returns the unknown-subscription fault and the consumer
// re-subscribes. Any authenticated member may probe — the response
// carries no data beyond the id's existence.
func (s *Server) handleSubscriptionProbe(w http.ResponseWriter, r *http.Request, _ bearer) {
	id := r.URL.Query().Get("id")
	if id == "" {
		badRequest(w, event.XML, "missing id parameter")
		return
	}
	if !s.ctrl.HasSubscription(id) {
		writeFault(w, event.XML, fmt.Errorf("%w: %s", ErrUnknownSubscription, id))
		return
	}
	writeEnvelope(w, event.XML, http.StatusOK, &subscribeResponse{ID: id})
}

// handleShardMap serves the controller's current shard map as a binary
// frame — the shard-aware client's refresh path after a wrong-shard
// redirect names a newer map version. The map carries shard ids and
// addresses only, never personal data; any authenticated member may
// fetch it.
func (s *Server) handleShardMap(w http.ResponseWriter, r *http.Request, _ bearer) {
	writeBody(w, http.StatusOK, event.ContentTypeBinary, s.ctrl.ShardMap().EncodeFrame())
}

// SetNode attaches the controller's replication node: /ws/replstatus
// renders its status and POST /ws/promote runs its promote transition.
func (s *Server) SetNode(n *replication.Node) *Server {
	s.node = n
	return s
}

// handleReplStatus reports the node's replication role, fencing epoch,
// election state and (on a node that ships) per-follower lag; a
// controller with no replication node is a primary at epoch 0. The
// payload carries operational state only, never personal data, but it
// still sits behind authentication like every other /ws route.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request, _ bearer) {
	resp := &ReplStatus{Role: replication.RolePrimary}
	if s.node != nil {
		st := s.node.Status()
		resp.Role, resp.Epoch, resp.Quorum, resp.Fenced = st.Role, st.Epoch, st.Quorum, st.Fenced
		for _, f := range st.Followers {
			resp.Followers = append(resp.Followers, ReplFollower{
				Addr: f.Addr, Connected: f.Connected, Fenced: f.Fenced, LagBytes: f.LagBytes,
			})
		}
		if st.Election != "" {
			// One durable epoch: what the node promised is what it holds.
			resp.Election, resp.Promised, resp.Phi = st.Election, st.Epoch, st.Phi
		}
	}
	writeXML(w, http.StatusOK, resp)
}

// handlePromote flips a replica into the primary role at the
// epoch named in the request (the failover runbook's lease claim).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request, _ bearer) {
	var req promoteRequest
	if err := readBody(r, &req); err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	if req.Epoch == 0 {
		badRequest(w, event.XML, "promote needs a nonzero epoch")
		return
	}
	if s.node == nil {
		writeFault(w, event.XML, replication.ErrNotReplica)
		return
	}
	if err := s.node.Promote(req.Epoch); err != nil {
		writeFault(w, event.XML, err)
		return
	}
	writeXML(w, http.StatusOK, &ReplStatus{Role: replication.RolePrimary, Epoch: s.node.Status().Epoch})
}

func (s *Server) handleDetails(w http.ResponseWriter, r *http.Request, who bearer) {
	body, err := readRaw(r)
	if err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	codec := requestCodec(r, body)
	resp := responseCodec(r, codec)
	req, err := codec.DecodeDetailRequest(body)
	if err != nil {
		badRequest(w, resp, err.Error())
		return
	}
	if err := checkTrace(req.Trace); err != nil {
		badRequest(w, resp, err.Error())
		return
	}
	if err := who.covers(req.Requester); err != nil {
		writeAuthFault(w, err)
		return
	}
	if req.Trace == "" {
		req.Trace = telemetry.TraceFrom(r.Context())
	}
	d, err := s.ctrl.RequestDetailsContext(r.Context(), req)
	if err != nil {
		writeFault(w, resp, err)
		return
	}
	out, err := resp.EncodeDetail(d)
	if err != nil {
		writeFault(w, resp, err)
		return
	}
	writeBody(w, http.StatusOK, respContentType(resp), out)
}

// respContentType appends the charset hint to XML responses, keeping
// the pre-negotiation header byte-for-byte.
func respContentType(c event.Codec) string {
	if c == event.Binary {
		return event.ContentTypeBinary
	}
	return "application/xml; charset=utf-8"
}

func (s *Server) handleInquire(w http.ResponseWriter, r *http.Request, who bearer) {
	req, err := readBodyAs(r, func(data []byte) (*inquiryRequest, error) {
		return xmlx.Decode(data, readInquiryRequest, xml.Unmarshal)
	})
	if err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	if err := who.covers(req.Actor); err != nil {
		writeAuthFault(w, err)
		return
	}
	q := index.Inquiry{
		PersonID: req.PersonID,
		Class:    req.Class,
		Producer: req.Producer,
		Limit:    req.Limit,
	}
	if q.From, err = parseOptTime(req.From); err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	if q.To, err = parseOptTime(req.To); err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	res, err := s.ctrl.InquireIndexContext(r.Context(), req.Actor, q)
	if err != nil {
		writeFault(w, event.XML, err)
		return
	}
	out, err := appendInquiryResponse(nil, res)
	if err != nil {
		writeFault(w, event.XML, err)
		return
	}
	writeBody(w, http.StatusOK, respContentType(event.XML), out)
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request, who bearer) {
	body, err := readRaw(r)
	if err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	p, err := policy.Decode(body)
	if err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	if err := who.covers(event.Actor(p.Producer)); err != nil {
		writeAuthFault(w, err)
		return
	}
	stored, err := s.ctrl.DefinePolicy(p)
	if err != nil {
		writeFault(w, event.XML, err)
		return
	}
	data, err := policy.Encode(stored)
	if err != nil {
		writeFault(w, event.XML, err)
		return
	}
	writeBody(w, http.StatusOK, respContentType(event.XML), data)
}

func (s *Server) handleConsent(w http.ResponseWriter, r *http.Request, _ bearer) {
	var d consentDirectiveXML
	if err := readBody(r, &d); err != nil {
		badRequest(w, event.XML, err.Error())
		return
	}
	// Consent is collected at the data sources (or by the citizen portal);
	// any authenticated member may record a directive.
	stored, err := s.ctrl.RecordConsent(consent.Directive{
		PersonID: d.PersonID,
		Allow:    d.Allow,
		Scope: consent.Scope{
			Class:    d.Class,
			Consumer: d.Consumer,
			Purpose:  d.Purpose,
		},
	})
	if err != nil {
		writeFault(w, event.XML, err)
		return
	}
	writeXML(w, http.StatusOK, &consentDirectiveXML{
		PersonID: stored.PersonID, Allow: stored.Allow,
		Class: stored.Scope.Class, Consumer: stored.Scope.Consumer, Purpose: stored.Scope.Purpose,
		Seq: stored.Seq,
	})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request, _ bearer) {
	decls := s.ctrl.Catalog().Classes()
	var buf bytes.Buffer
	buf.WriteString("<catalog>\n")
	for _, d := range decls {
		data, err := schema.Encode(d.Schema)
		if err != nil {
			writeFault(w, event.XML, err)
			return
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	buf.WriteString("</catalog>\n")
	writeBody(w, http.StatusOK, respContentType(event.XML), buf.Bytes())
}

// handlePending lets a data producer poll its pending access requests
// (?producer=ID). With authentication enabled, the token must cover the
// producer.
func (s *Server) handlePending(w http.ResponseWriter, r *http.Request, who bearer) {
	producer := event.ProducerID(r.URL.Query().Get("producer"))
	if producer == "" {
		badRequest(w, event.XML, "missing producer parameter")
		return
	}
	if err := who.covers(event.Actor(producer)); err != nil {
		writeAuthFault(w, err)
		return
	}
	pending := s.ctrl.PendingRequests(producer)
	out := pendingResponse{}
	for _, p := range pending {
		out.Requests = append(out.Requests, pendingRequestXML{
			Actor:   p.Actor,
			Class:   p.Class,
			Purpose: p.Purpose,
			Count:   p.Count,
			FirstAt: p.FirstAt.UTC().Format(time.RFC3339Nano),
			LastAt:  p.LastAt.UTC().Format(time.RFC3339Nano),
		})
	}
	writeXML(w, http.StatusOK, &out)
}

type pendingResponse struct {
	XMLName  xml.Name            `xml:"pendingRequests"`
	Requests []pendingRequestXML `xml:"request"`
}

type pendingRequestXML struct {
	Actor   event.Actor   `xml:"actor"`
	Class   event.ClassID `xml:"class"`
	Purpose event.Purpose `xml:"purpose,omitempty"`
	Count   int           `xml:"count"`
	FirstAt string        `xml:"firstAt"`
	LastAt  string        `xml:"lastAt"`
}

// handleAudit answers the privacy guarantor's remote inquiry over the
// access log. With authentication enabled the bearer token must carry
// the GuarantorRole; without it the endpoint trusts the perimeter like
// the rest of the unauthenticated deployment.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request, who bearer) {
	if !who.hasRole(GuarantorRole) {
		writeAuthFault(w, fmt.Errorf("%w: audit inquiry requires the %s role", ErrUnauthorized, GuarantorRole))
		return
	}
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			badRequest(w, event.XML, "bad limit")
			return
		}
		limit = n
	}
	recs, err := s.ctrl.Audit().Search(audit.Query{
		Kind:    audit.Kind(q.Get("kind")),
		Actor:   q.Get("actor"),
		EventID: event.GlobalID(q.Get("event")),
		Class:   event.ClassID(q.Get("class")),
		Outcome: q.Get("outcome"),
		Trace:   q.Get("trace"),
		Limit:   limit,
	})
	if err != nil {
		writeFault(w, event.XML, err)
		return
	}
	out := auditResponse{}
	for _, rec := range recs {
		out.Records = append(out.Records, auditRecordXML{
			Seq: rec.Seq, At: rec.At.UTC().Format(time.RFC3339Nano),
			Kind: string(rec.Kind), Actor: rec.Actor,
			EventID: rec.EventID, Class: rec.Class, Purpose: rec.Purpose,
			Outcome: rec.Outcome, PolicyID: rec.PolicyID, Note: rec.Note,
			Trace: rec.Trace,
		})
	}
	writeXML(w, http.StatusOK, &out)
}

type auditResponse struct {
	XMLName xml.Name         `xml:"auditRecords"`
	Records []auditRecordXML `xml:"record"`
}

type auditRecordXML struct {
	Seq      uint64         `xml:"seq,attr"`
	At       string         `xml:"at"`
	Kind     string         `xml:"kind"`
	Actor    string         `xml:"actor"`
	EventID  event.GlobalID `xml:"eventId,omitempty"`
	Class    event.ClassID  `xml:"class,omitempty"`
	Purpose  event.Purpose  `xml:"purpose,omitempty"`
	Outcome  string         `xml:"outcome"`
	PolicyID string         `xml:"policyId,omitempty"`
	Note     string         `xml:"note,omitempty"`
	Trace    string         `xml:"trace,omitempty"`
}

// handlePolicies lists a producer's stored policies (?producer=ID), in
// the compact XML form. With authentication enabled the token must cover
// the producer — a producer may export only its own corpus.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request, who bearer) {
	producer := event.ProducerID(r.URL.Query().Get("producer"))
	if producer == "" {
		badRequest(w, event.XML, "missing producer parameter")
		return
	}
	if err := who.covers(event.Actor(producer)); err != nil {
		writeAuthFault(w, err)
		return
	}
	var buf bytes.Buffer
	buf.WriteString("<policies>\n")
	for _, p := range s.ctrl.Policies(producer) {
		data, err := policy.Encode(p)
		if err != nil {
			writeFault(w, event.XML, err)
			return
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	buf.WriteString("</policies>\n")
	writeBody(w, http.StatusOK, respContentType(event.XML), buf.Bytes())
}

type consentDirectiveXML struct {
	XMLName  xml.Name      `xml:"consentDirective"`
	PersonID string        `xml:"personId"`
	Allow    bool          `xml:"allow"`
	Class    event.ClassID `xml:"class,omitempty"`
	Consumer event.Actor   `xml:"consumer,omitempty"`
	Purpose  event.Purpose `xml:"purpose,omitempty"`
	Seq      uint64        `xml:"seq,omitempty"`
}

func parseOptTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("transport: bad time %q: %w", s, err)
	}
	return t, nil
}
