package transport

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/consent"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// DefaultHTTPTimeout bounds each HTTP attempt of the transport clients
// when the caller supplies no http.Client of its own.
const DefaultHTTPTimeout = 10 * time.Second

// Option configures a Client or RemoteGateway.
type Option func(*clientOptions)

type clientOptions struct {
	timeout  time.Duration
	retrier  *resilience.Retrier
	breakers *resilience.Group
	codec    event.Codec
}

// NewTunedTransport returns an http.Transport configured for the
// platform's steady-state traffic shape: many small requests to a
// handful of hosts over persistent connections. The default transport's
// 2 idle connections per host force a TCP handshake under any
// concurrency; the platform clients (and the controller's callback
// deliverer) keep a deep warm pool instead so a saturation publish run
// never churns connections.
func NewTunedTransport() *http.Transport {
	var tr *http.Transport
	if base, ok := http.DefaultTransport.(*http.Transport); ok {
		tr = base.Clone()
	} else {
		tr = &http.Transport{}
	}
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	tr.IdleConnTimeout = 90 * time.Second
	return tr
}

// WithCodec sets the wire codec the client encodes its hot-path
// messages with (publish bodies, detail requests, subscribe requests)
// and asks the server to answer in. Nil or unset means event.XML — the
// default wire format; responses are sniffed by frame magic, so a
// server that ignores the negotiation still interoperates.
func WithCodec(c event.Codec) Option {
	return func(o *clientOptions) { o.codec = c }
}

// WithTimeout sets the per-attempt HTTP timeout used when no custom
// http.Client is supplied (callers providing their own client own its
// timeout). The retrier multiplies attempts; each one is bounded by
// this, and the caller's context bounds the whole call.
func WithTimeout(d time.Duration) Option {
	return func(o *clientOptions) { o.timeout = d }
}

// WithRetrier makes the client retry transient failures (connection
// errors, 5xx, truncated responses) under the retrier's policy. Without
// it every failure surfaces immediately, as before.
func WithRetrier(r *resilience.Retrier) Option {
	return func(o *clientOptions) { o.retrier = r }
}

// WithBreakerGroup guards every route with a circuit breaker from the
// group (one breaker per endpoint path). While a breaker is open, calls
// fail fast with an error satisfying errors.Is(err, resilience.ErrOpen).
func WithBreakerGroup(g *resilience.Group) Option {
	return func(o *clientOptions) { o.breakers = g }
}

func applyOptions(opts []Option) clientOptions {
	o := clientOptions{timeout: DefaultHTTPTimeout}
	for _, opt := range opts {
		opt(&o)
	}
	if o.codec == nil {
		o.codec = event.XML
	}
	return o
}

// breakerFailure classifies an attempt outcome for the circuit breaker:
// transport-level failures (connection errors, 5xx, truncated bodies)
// count against the endpoint; application-level faults are successes —
// the endpoint answered. A source-unavailable fault is transient but
// names a failure *behind* the answering endpoint, so it does not trip
// the breaker of the hop that reported it.
func breakerFailure(err error) bool {
	return err != nil && resilience.Retryable(err) &&
		!errors.Is(err, enforcer.ErrSourceUnavailable) &&
		!errors.Is(err, resilience.ErrOpen)
}

// acquire obtains a breaker permit for endpoint when breakers are
// configured; the returned release is nil-safe to call.
func acquire(g *resilience.Group, endpoint string) (func(bool), error) {
	if g == nil {
		return func(bool) {}, nil
	}
	return g.Breaker(endpoint).Acquire()
}

// Client is the consumer/producer-side SDK for a remote data controller.
// Its methods mirror the controller API over the web-service binding, and
// they surface the same sentinel errors (errors.Is works transparently).
// Every method takes a context bounding the whole call, retries included.
//
// By default the client is as fragile as the network: supply WithRetrier
// and WithBreakerGroup to make it fault-tolerant.
type Client struct {
	base     string
	http     *http.Client
	token    string // optional bearer token (see WithToken)
	codec    event.Codec
	retrier  *resilience.Retrier
	breakers *resilience.Group
}

// NewClient creates a client for the controller at base (e.g.
// "http://controller:8080"). httpClient may be nil for a default whose
// timeout is WithTimeout (10 seconds unless overridden) and whose
// transport keeps a deep keep-alive pool (NewTunedTransport).
func NewClient(base string, httpClient *http.Client, opts ...Option) *Client {
	o := applyOptions(opts)
	if httpClient == nil {
		httpClient = &http.Client{Timeout: o.timeout, Transport: NewTunedTransport()}
	}
	return &Client{base: base, http: httpClient, codec: o.codec, retrier: o.retrier, breakers: o.breakers}
}

// endpointOf strips the query so breaker names stay per-route.
func endpointOf(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		return path[:i]
	}
	return path
}

// roundTrip performs one HTTP attempt and returns the raw 2xx body.
// Connection-level failures are marked transient for the retrier.
// contentType labels the request body and doubles as the Accept
// preference, so one header pair negotiates both directions.
func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, body []byte) ([]byte, error) {
	var reader io.Reader
	if body != nil {
		// A fresh reader per attempt: retries must resend the full body.
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
	if err != nil {
		return nil, fmt.Errorf("transport: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", contentType)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	setTraceHeaders(req, ctx)
	resp, err := c.http.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller's deadline elapsed: not retryable, the budget
			// is gone.
			return nil, fmt.Errorf("transport: %s %s: %w", method, path, err)
		}
		return nil, resilience.MarkRetryable(fmt.Errorf("transport: %s %s: %w", method, path, err))
	}
	return readResult(resp)
}

// setTraceHeaders stamps the outgoing request with the context's trace:
// the legacy X-Trace-Id plus the W3C traceparent carrying the current
// span ID, so the server side parents its spans under the caller's.
func setTraceHeaders(req *http.Request, ctx context.Context) {
	trace := telemetry.TraceFrom(ctx)
	if trace == "" {
		return
	}
	req.Header.Set(telemetry.TraceHeader, trace)
	req.Header.Set(telemetry.TraceparentHeader,
		telemetry.FormatTraceparent(trace, telemetry.SpanIDFrom(ctx)))
}

// call runs one logical operation: breaker permit, HTTP attempt, response
// decode, outcome classification — repeated under the retry policy when
// configured. decode (nil to skip) runs INSIDE the loop: a garbled or
// truncated 2xx body is a transient transfer failure and must trigger a
// fresh attempt, not a permanent error.
func (c *Client) call(ctx context.Context, method, path string, body []byte, decode func([]byte) error) error {
	return c.callCT(ctx, method, path, event.ContentTypeXML, body, decode)
}

// callCT is call with an explicit request content type (the negotiated
// codec's on the hot routes, XML everywhere else).
func (c *Client) callCT(ctx context.Context, method, path, contentType string, body []byte, decode func([]byte) error) error {
	endpoint := endpointOf(path)
	return c.retrier.Do(ctx, endpoint, func(ctx context.Context) error {
		release, err := acquire(c.breakers, endpoint)
		if err != nil {
			return err
		}
		err = func() error {
			data, err := c.roundTrip(ctx, method, path, contentType, body)
			if err != nil {
				return err
			}
			if decode == nil {
				return nil
			}
			return decode(data)
		}()
		release(breakerFailure(err))
		return err
	})
}

// decodeXMLInto adapts xml.Unmarshal for call: decode failures of a 2xx
// body are marked transient (truncated or garbled transfer).
func decodeXMLInto(out any) func([]byte) error {
	if out == nil {
		return nil
	}
	return func(data []byte) error {
		if err := xml.Unmarshal(data, out); err != nil {
			return resilience.MarkRetryable(fmt.Errorf("transport: decode response: %w", err))
		}
		return nil
	}
}

// post sends an XML body and decodes the XML response into out.
func (c *Client) post(ctx context.Context, path string, body []byte, out any) error {
	return c.call(ctx, http.MethodPost, path, body, decodeXMLInto(out))
}

// get fetches path and decodes the XML response into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.call(ctx, http.MethodGet, path, nil, decodeXMLInto(out))
}

// Publish sends a notification and returns the assigned global event id.
// The body travels in the client's negotiated codec (WithCodec); the ack
// is decoded by frame sniffing, so either answer format works.
func (c *Client) Publish(ctx context.Context, n *event.Notification) (event.GlobalID, error) {
	if n.Trace != "" && telemetry.TraceFrom(ctx) == "" {
		ctx = telemetry.WithTrace(ctx, n.Trace)
	}
	body, err := c.codec.EncodeNotification(n)
	if err != nil {
		return "", err
	}
	var gid event.GlobalID
	err = c.callCT(ctx, http.MethodPost, "/ws/publish", c.codec.ContentType(), body, func(data []byte) error {
		g, derr := decodeAnyPublishResponse(data)
		if derr != nil {
			return resilience.MarkRetryable(fmt.Errorf("transport: decode response: %w", derr))
		}
		gid = g
		return nil
	})
	if err != nil {
		return "", err
	}
	return gid, nil
}

// PublishBatch publishes the notifications concurrently over the
// client's keep-alive connection pool — the request-pipelining form of
// Publish for producers with a backlog (the saturation benchmark, the
// outbox drain). Results are positional: ids[i] answers ns[i], and a
// failed publish leaves its id empty with the first error returned
// after every in-flight request settles. conns bounds the concurrent
// requests (0 means 8, matched to the tuned transport's per-host pool).
func (c *Client) PublishBatch(ctx context.Context, ns []*event.Notification, conns int) ([]event.GlobalID, error) {
	if conns <= 0 {
		conns = 8
	}
	if conns > len(ns) {
		conns = len(ns)
	}
	ids := make([]event.GlobalID, len(ns))
	errs := make([]error, len(ns))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ids[i], errs[i] = c.Publish(ctx, ns[i])
			}
		}()
	}
	for i := range ns {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ids, err
		}
	}
	return ids, nil
}

// Subscribe registers a callback URL for the notifications of a class and
// returns the subscription id. The caller must run a NotificationReceiver
// (or equivalent endpoint) at the callback URL. The subscription carries
// the client's codec, so callback POSTs arrive in the same format the
// consumer speaks.
func (c *Client) Subscribe(ctx context.Context, actor event.Actor, class event.ClassID, callbackURL string) (string, error) {
	req := subscribeRequest{Actor: actor, Class: class, Callback: callbackURL}
	var body []byte
	var err error
	if c.codec == event.Binary {
		req.Codec = c.codec.Name()
		body = encodeSubscribeRequestFrame(&req)
	} else {
		body, err = encodeXML(&req)
		if err != nil {
			return "", err
		}
	}
	var id string
	err = c.callCT(ctx, http.MethodPost, "/ws/subscribe", c.codec.ContentType(), body, func(data []byte) error {
		sid, derr := decodeAnySubscribeResponse(data)
		if derr != nil {
			return resilience.MarkRetryable(fmt.Errorf("transport: decode response: %w", derr))
		}
		id = sid
		return nil
	})
	if err != nil {
		return "", err
	}
	return id, nil
}

// SubscriptionActive probes whether a subscription id is still live on
// the controller. Subscriptions are controller memory: a restart loses
// them silently, so consumers poll this and re-subscribe on false. An
// error reports only the probe failing (controller unreachable), never
// a missing subscription.
func (c *Client) SubscriptionActive(ctx context.Context, id string) (bool, error) {
	var out subscribeResponse
	err := c.get(ctx, "/ws/subscription?id="+id, &out)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrUnknownSubscription):
		return false, nil
	default:
		return false, err
	}
}

// RequestDetails resolves a request for details against the remote
// controller and returns the privacy-aware detail. When the producer
// behind the event is down, the error satisfies
// errors.Is(err, enforcer.ErrSourceUnavailable) — a deferred answer,
// distinct from a policy denial.
func (c *Client) RequestDetails(ctx context.Context, r *event.DetailRequest) (*event.Detail, error) {
	if r.Trace != "" && telemetry.TraceFrom(ctx) == "" {
		// A quoted trace (continuing the originating notification's flow)
		// also rides the request headers, so the controller-side server
		// span joins the same trace instead of minting a fresh one.
		ctx = telemetry.WithTrace(ctx, r.Trace)
	}
	body, err := c.codec.EncodeDetailRequest(r)
	if err != nil {
		return nil, err
	}
	var d *event.Detail
	err = c.callCT(ctx, http.MethodPost, "/ws/details", c.codec.ContentType(), body, func(data []byte) error {
		var derr error
		if event.IsBinaryFrame(data) {
			d, derr = event.Binary.DecodeDetail(data)
		} else {
			d, derr = event.XML.DecodeDetail(data)
		}
		if derr != nil {
			return resilience.MarkRetryable(fmt.Errorf("transport: decode response: %w", derr))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// InquireIndex queries the remote events index.
func (c *Client) InquireIndex(ctx context.Context, actor event.Actor, q index.Inquiry) ([]*event.Notification, error) {
	req := inquiryRequest{
		Actor:    actor,
		PersonID: q.PersonID,
		Class:    q.Class,
		Producer: q.Producer,
		Limit:    q.Limit,
	}
	if !q.From.IsZero() {
		req.From = q.From.UTC().Format(time.RFC3339Nano)
	}
	if !q.To.IsZero() {
		req.To = q.To.UTC().Format(time.RFC3339Nano)
	}
	body, err := encodeXML(&req)
	if err != nil {
		return nil, err
	}
	var out inquiryResponse
	if err := c.post(ctx, "/ws/inquire", body, &out); err != nil {
		return nil, err
	}
	notifications := make([]*event.Notification, 0, len(out.Notifications))
	for _, raw := range out.Notifications {
		n, err := event.DecodeNotification([]byte(raw))
		if err != nil {
			return nil, err
		}
		notifications = append(notifications, n)
	}
	return notifications, nil
}

// DefinePolicy submits an elicited privacy policy and returns the stored
// form (with its assigned id).
func (c *Client) DefinePolicy(ctx context.Context, p *policy.Policy) (*policy.Policy, error) {
	body, err := policy.Encode(p)
	if err != nil {
		return nil, err
	}
	var stored *policy.Policy
	err = c.call(ctx, http.MethodPost, "/ws/policy", body, func(data []byte) error {
		p, err := policy.Decode(data)
		if err != nil {
			return resilience.MarkRetryable(err)
		}
		stored = p
		return nil
	})
	return stored, err
}

// Catalog fetches the event catalog: the schemas of every declared
// class, as a candidate consumer browses them before subscribing.
func (c *Client) Catalog(ctx context.Context) ([]*schema.Schema, error) {
	var out []*schema.Schema
	err := c.call(ctx, http.MethodGet, "/ws/catalog", nil, func(data []byte) error {
		var wrapper struct {
			Schemas []catalogSchemaXML `xml:"eventSchema"`
		}
		if err := xml.Unmarshal(data, &wrapper); err != nil {
			return resilience.MarkRetryable(fmt.Errorf("transport: decode catalog: %w", err))
		}
		out = make([]*schema.Schema, 0, len(wrapper.Schemas))
		for _, raw := range wrapper.Schemas {
			element := fmt.Sprintf(`<eventSchema class=%q version="%d">%s</eventSchema>`,
				raw.Class, raw.Version, raw.Raw)
			s, err := schema.Decode([]byte(element))
			if err != nil {
				return resilience.MarkRetryable(err)
			}
			out = append(out, s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// catalogSchemaXML captures each nested eventSchema element (attributes
// plus verbatim inner XML) so schema.Decode can re-validate it.
type catalogSchemaXML struct {
	Class   string `xml:"class,attr"`
	Version int    `xml:"version,attr"`
	Raw     []byte `xml:",innerxml"`
}

// PendingRequest mirrors core.PendingRequest over the wire.
type PendingRequest struct {
	Actor   event.Actor
	Class   event.ClassID
	Purpose event.Purpose
	Count   int
	FirstAt time.Time
	LastAt  time.Time
}

// PendingRequests polls the producer's unresolved access requests.
func (c *Client) PendingRequests(ctx context.Context, producer event.ProducerID) ([]PendingRequest, error) {
	var out struct {
		Requests []struct {
			Actor   event.Actor   `xml:"actor"`
			Class   event.ClassID `xml:"class"`
			Purpose event.Purpose `xml:"purpose"`
			Count   int           `xml:"count"`
			FirstAt string        `xml:"firstAt"`
			LastAt  string        `xml:"lastAt"`
		} `xml:"request"`
	}
	if err := c.get(ctx, "/ws/pending?producer="+string(producer), &out); err != nil {
		return nil, err
	}
	pending := make([]PendingRequest, 0, len(out.Requests))
	for _, r := range out.Requests {
		first, err := time.Parse(time.RFC3339Nano, r.FirstAt)
		if err != nil {
			return nil, fmt.Errorf("transport: pending firstAt: %w", err)
		}
		last, err := time.Parse(time.RFC3339Nano, r.LastAt)
		if err != nil {
			return nil, fmt.Errorf("transport: pending lastAt: %w", err)
		}
		pending = append(pending, PendingRequest{
			Actor: r.Actor, Class: r.Class, Purpose: r.Purpose,
			Count: r.Count, FirstAt: first, LastAt: last,
		})
	}
	return pending, nil
}

// Policies fetches a producer's stored policies (compact XML list).
func (c *Client) Policies(ctx context.Context, producer event.ProducerID) ([]*policy.Policy, error) {
	var out []*policy.Policy
	err := c.call(ctx, http.MethodGet, "/ws/policies?producer="+string(producer), nil, func(data []byte) error {
		var wrapper struct {
			Policies []policyRawXML `xml:"privacyPolicy"`
		}
		if err := xml.Unmarshal(data, &wrapper); err != nil {
			return resilience.MarkRetryable(fmt.Errorf("transport: decode policies: %w", err))
		}
		out = make([]*policy.Policy, 0, len(wrapper.Policies))
		for _, raw := range wrapper.Policies {
			element := fmt.Sprintf(`<privacyPolicy id=%q>%s</privacyPolicy>`, raw.ID, raw.Raw)
			p, err := policy.Decode([]byte(element))
			if err != nil {
				return resilience.MarkRetryable(err)
			}
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// policyRawXML captures a nested privacyPolicy element verbatim.
type policyRawXML struct {
	ID  string `xml:"id,attr"`
	Raw []byte `xml:",innerxml"`
}

// Stats mirrors core.Stats over the wire.
type Stats struct {
	Published           uint64 `xml:"published"`
	Delivered           uint64 `xml:"delivered"`
	ConsentDrops        uint64 `xml:"consentDrops"`
	SubscriptionDenials uint64 `xml:"subscriptionDenials"`
	DetailPermits       uint64 `xml:"detailPermits"`
	DetailDenials       uint64 `xml:"detailDenials"`
	Inquiries           uint64 `xml:"inquiries"`
}

// Stats fetches the controller's operational counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	if err := c.get(ctx, "/ws/stats", &out); err != nil {
		return Stats{}, err
	}
	return out, nil
}

// ShardMap fetches the controller's current shard map. A non-clustered
// controller answers the not-found fault
// (errors.Is(err, gateway.ErrNotFound)).
func (c *Client) ShardMap(ctx context.Context) (*cluster.Map, error) {
	var m *cluster.Map
	err := c.call(ctx, http.MethodGet, "/ws/shardmap", nil, func(data []byte) error {
		mm, derr := cluster.DecodeMapFrame(data)
		if derr != nil {
			return resilience.MarkRetryable(fmt.Errorf("transport: decode shard map: %w", derr))
		}
		m = mm
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// ReplStatus fetches the node's replication snapshot: role, fencing
// epoch, and (on a primary with an attached shipper) follower lag. The
// failover runbook reads it to pick the most caught-up replica.
func (c *Client) ReplStatus(ctx context.Context) (ReplStatus, error) {
	var out ReplStatus
	if err := c.get(ctx, "/ws/replstatus", &out); err != nil {
		return ReplStatus{}, err
	}
	return out, nil
}

// Promote asks a read replica to assume the primary role at the given
// fencing epoch. A node already primary answers a conflict
// (errors.Is(err, replication.ErrNotReplica) does not survive the wire
// — the fault is a plain bad-request conflict).
func (c *Client) Promote(ctx context.Context, epoch uint64) (ReplStatus, error) {
	body, err := encodeXML(&promoteRequest{Epoch: epoch})
	if err != nil {
		return ReplStatus{}, err
	}
	var out ReplStatus
	if err := c.post(ctx, "/ws/promote", body, &out); err != nil {
		return ReplStatus{}, err
	}
	return out, nil
}

// RecordConsent submits a consent directive.
func (c *Client) RecordConsent(ctx context.Context, d consent.Directive) (consent.Directive, error) {
	body, err := encodeXML(&consentDirectiveXML{
		PersonID: d.PersonID, Allow: d.Allow,
		Class: d.Scope.Class, Consumer: d.Scope.Consumer, Purpose: d.Scope.Purpose,
	})
	if err != nil {
		return consent.Directive{}, err
	}
	var out consentDirectiveXML
	if err := c.post(ctx, "/ws/consent", body, &out); err != nil {
		return consent.Directive{}, err
	}
	return consent.Directive{
		Seq:      out.Seq,
		PersonID: out.PersonID,
		Allow:    out.Allow,
		Scope:    consent.Scope{Class: out.Class, Consumer: out.Consumer, Purpose: out.Purpose},
	}, nil
}
