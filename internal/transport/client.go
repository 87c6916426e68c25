package transport

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/consent"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// Client is the consumer/producer-side SDK for a remote data controller.
// Its methods mirror the controller API over the web-service binding, and
// they surface the same sentinel errors (errors.Is works transparently).
// Every method takes a context bounding the whole call, retries included.
//
// By default the client is as fragile as the network: supply WithRetrier
// and WithBreakerGroup to make it fault-tolerant.
type Client struct {
	caller
}

// NewClient creates a client for the controller at base (e.g.
// "http://controller:8080"). httpClient may be nil for the platform's
// synchronous round tripper (NewTunedTransport) with each attempt
// bounded by WithTimeout (10 seconds unless overridden); a supplied
// client lends its Transport and its Timeout.
func NewClient(base string, httpClient *http.Client, opts ...Option) *Client {
	return &Client{newCaller(base, httpClient, opts)}
}

// WithToken returns a copy of the client that sends the bearer token on
// every request.
func (c *Client) WithToken(token string) *Client {
	return &Client{c.withToken(token)}
}

// call sends one request to a controller route, one circuit breaker per
// route (the query is stripped from its name). contentType labels the
// request body and doubles as the Accept preference, so one header pair
// negotiates both directions: the negotiated codec's on the hot routes,
// XML everywhere else.
func (c *Client) call(ctx context.Context, method, path, contentType string, body []byte, decode func([]byte) error) error {
	endpoint, _, _ := strings.Cut(path, "?")
	return c.do(ctx, endpoint, method, c.baseURL, path, contentType, contentType, "", body, decode)
}

// get fetches path and decodes the XML response into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.call(ctx, http.MethodGet, path, "", nil, func(data []byte) error {
		return xml.Unmarshal(data, out)
	})
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
		return "", refuse(err)
	}
	var out *publishResponse
	err = c.call(ctx, http.MethodPost, "/ws/publish", c.codec.ContentType(), body, func(data []byte) (derr error) {
		out, derr = decodeEnvelope(data, readPublishResponse)
		return derr
	})
	if err != nil {
		return "", err
	}
	return out.EventID, nil
}

// Subscribe registers a callback URL for the notifications of a class and
// returns the subscription id. The caller must run a NotificationReceiver
// (or equivalent endpoint) at the callback URL. The subscription carries
// the client's codec, so callback POSTs arrive in the same format the
// consumer speaks.
func (c *Client) Subscribe(ctx context.Context, actor event.Actor, class event.ClassID, callbackURL string) (string, error) {
	req := subscribeRequest{Actor: actor, Class: class, Callback: callbackURL}
	if c.codec == event.Binary {
		req.Codec = c.codec.Name()
	}
	var out *subscribeResponse
	err := c.call(ctx, http.MethodPost, "/ws/subscribe", c.codec.ContentType(), encodeEnvelope(c.codec, &req), func(data []byte) (derr error) {
		out, derr = decodeEnvelope(data, readSubscribeResponse)
		return derr
	})
	if err != nil {
		return "", err
	}
	return out.ID, nil
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
		return nil, refuse(err)
	}
	var d *event.Detail
	err = c.call(ctx, http.MethodPost, "/ws/details", c.codec.ContentType(), body, func(data []byte) (derr error) {
		d, derr = decodeAnyDetail(data)
		return derr
	})
	return d, err
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
	var out []*event.Notification
	err := c.call(ctx, http.MethodPost, "/ws/inquire", event.ContentTypeXML, req.appendXML(make([]byte, 0, 256)), func(data []byte) (derr error) {
		out, derr = decodeInquiryResponse(data)
		return derr
	})
	return out, err
}

// DefinePolicy submits an elicited privacy policy and returns the stored
// form (with its assigned id).
func (c *Client) DefinePolicy(ctx context.Context, p *policy.Policy) (*policy.Policy, error) {
	body, err := policy.Encode(p)
	if err != nil {
		return nil, refuse(err)
	}
	var stored *policy.Policy
	err = c.call(ctx, http.MethodPost, "/ws/policy", event.ContentTypeXML, body, func(data []byte) (derr error) {
		stored, derr = policy.Decode(data)
		return derr
	})
	return stored, err
}

// Catalog fetches the event catalog: the schemas of every declared
// class, as a candidate consumer browses them before subscribing.
func (c *Client) Catalog(ctx context.Context) ([]*schema.Schema, error) {
	var out []*schema.Schema
	err := c.call(ctx, http.MethodGet, "/ws/catalog", "", nil, func(data []byte) error {
		var wrapper struct {
			Schemas []catalogSchemaXML `xml:"eventSchema"`
		}
		if err := xml.Unmarshal(data, &wrapper); err != nil {
			return err
		}
		out = make([]*schema.Schema, 0, len(wrapper.Schemas))
		for _, raw := range wrapper.Schemas {
			element := fmt.Sprintf(`<eventSchema class=%q version="%d">%s</eventSchema>`,
				raw.Class, raw.Version, raw.Raw)
			s, err := schema.Decode([]byte(element))
			if err != nil {
				return err
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
	err := c.call(ctx, http.MethodGet, "/ws/policies?producer="+string(producer), "", nil, func(data []byte) error {
		var wrapper struct {
			Policies []policyRawXML `xml:"privacyPolicy"`
		}
		if err := xml.Unmarshal(data, &wrapper); err != nil {
			return err
		}
		out = make([]*policy.Policy, 0, len(wrapper.Policies))
		for _, raw := range wrapper.Policies {
			element := fmt.Sprintf(`<privacyPolicy id=%q>%s</privacyPolicy>`, raw.ID, raw.Raw)
			p, err := policy.Decode([]byte(element))
			if err != nil {
				return err
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

// ShardMap fetches the controller's current shard map; a lone
// controller's is the version-0 map of one shard.
func (c *Client) ShardMap(ctx context.Context) (*cluster.Map, error) {
	var m *cluster.Map
	err := c.call(ctx, http.MethodGet, "/ws/shardmap", "", nil, func(data []byte) (derr error) {
		m, derr = cluster.DecodeMapFrame(data)
		return derr
	})
	return m, err
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

// Promote asks a replica to assume the primary role at the given
// fencing epoch. A node already primary answers a conflict
// (errors.Is(err, replication.ErrNotReplica) does not survive the wire
// — the fault is a plain bad-request conflict).
func (c *Client) Promote(ctx context.Context, epoch uint64) (ReplStatus, error) {
	body, err := xml.Marshal(&promoteRequest{Epoch: epoch})
	if err != nil {
		return ReplStatus{}, refuse(fmt.Errorf("transport: encode: %w", err))
	}
	var out ReplStatus
	if err := c.call(ctx, http.MethodPost, "/ws/promote", event.ContentTypeXML, body, func(data []byte) error {
		return xml.Unmarshal(data, &out)
	}); err != nil {
		return ReplStatus{}, err
	}
	return out, nil
}

// RecordConsent submits a consent directive.
func (c *Client) RecordConsent(ctx context.Context, d consent.Directive) (consent.Directive, error) {
	body, err := xml.Marshal(&consentDirectiveXML{
		PersonID: d.PersonID, Allow: d.Allow,
		Class: d.Scope.Class, Consumer: d.Scope.Consumer, Purpose: d.Scope.Purpose,
	})
	if err != nil {
		return consent.Directive{}, refuse(fmt.Errorf("transport: encode: %w", err))
	}
	var out consentDirectiveXML
	if err := c.call(ctx, http.MethodPost, "/ws/consent", event.ContentTypeXML, body, func(data []byte) error {
		return xml.Unmarshal(data, &out)
	}); err != nil {
		return consent.Directive{}, err
	}
	return consent.Directive{
		Seq:      out.Seq,
		PersonID: out.PersonID,
		Allow:    out.Allow,
		Scope:    consent.Scope{Class: out.Class, Consumer: out.Consumer, Purpose: out.Purpose},
	}, nil
}
