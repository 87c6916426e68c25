package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// DefaultHTTPTimeout bounds each HTTP attempt of the transport clients
// when the caller supplies no http.Client of its own.
const DefaultHTTPTimeout = 10 * time.Second

// Option configures a Client or RemoteGateway.
type Option func(*caller)

// WithCodec sets the wire codec the client encodes its hot-path
// messages with (publish bodies, detail requests, subscribe requests)
// and asks the server to answer in. Nil or unset means event.XML — the
// default wire format; responses are sniffed by frame magic, so a
// server that ignores the negotiation still interoperates.
func WithCodec(c event.Codec) Option {
	return func(o *caller) { o.codec = c }
}

// WithTimeout sets the per-attempt HTTP timeout used when no custom
// http.Client is supplied (a supplied client's Timeout takes its
// place). The retrier multiplies attempts; each one is bounded by
// this, and the caller's context bounds the whole call.
func WithTimeout(d time.Duration) Option {
	return func(o *caller) { o.timeout = d }
}

// WithRetrier makes the client retry transient failures (connection
// errors, 5xx, truncated responses) under the retrier's policy. Without
// it every failure surfaces immediately, as before.
func WithRetrier(r *resilience.Retrier) Option {
	return func(o *caller) { o.retrier = r }
}

// WithBreakerGroup guards every route with a circuit breaker from the
// group (one breaker per endpoint path). While a breaker is open, calls
// fail fast with an error satisfying errors.Is(err, resilience.ErrOpen).
func WithBreakerGroup(g *resilience.Group) Option {
	return func(o *caller) { o.breakers = g }
}

// caller is the one outgoing call path of the web-service binding: the
// peer's base URL, the round tripper, the optional bearer token, the
// negotiated codec and the fault-tolerance policy. Client, RemoteGateway
// and the controller's callback deliverer all send through do.
type caller struct {
	base    string   // the peer's base URL as given; names RemoteGateway's breaker
	baseURL *url.URL // base parsed, nil when it does not parse
	baseErr error    // why base does not parse
	rt      http.RoundTripper
	// sync is rt when it takes the attempt's deadline itself, as the
	// platform's round tripper does; nil for a foreign one.
	sync     deadlineRoundTripper
	auth     []string // the Authorization value, nil without a token (see WithToken)
	codec    event.Codec
	timeout  time.Duration // bounds each attempt; zero means unbounded
	retrier  *resilience.Retrier
	breakers *resilience.Group
}

// newCaller applies opts over the defaults. A nil httpClient means the
// platform's synchronous round tripper (NewTunedTransport) with
// attempts bounded by WithTimeout (10 seconds unless overridden); a
// supplied one lends its Transport (nil for http.DefaultTransport) and
// its Timeout.
func newCaller(base string, httpClient *http.Client, opts []Option) caller {
	c := caller{base: base, timeout: DefaultHTTPTimeout}
	c.baseURL, c.baseErr = url.Parse(base)
	for _, opt := range opts {
		opt(&c)
	}
	if c.codec == nil {
		c.codec = event.XML
	}
	if httpClient == nil {
		c.rt = NewTunedTransport()
	} else {
		c.rt, c.timeout = httpClient.Transport, httpClient.Timeout
		if c.rt == nil {
			c.rt = http.DefaultTransport
		}
	}
	c.sync, _ = c.rt.(deadlineRoundTripper)
	return c
}

// deadlineRoundTripper is a round tripper that takes an attempt's
// deadline as an argument, so the attempt derives no context for it:
// the platform's (see roundTripper.roundTrip).
type deadlineRoundTripper interface {
	roundTrip(ctx context.Context, req *http.Request, deadline time.Time) (*http.Response, error)
}

// withToken returns a copy of c that sends the bearer token on every
// call; an empty token sends none.
func (c caller) withToken(token string) caller {
	c.auth = nil
	if token != "" {
		c.auth = []string{"Bearer " + token}
	}
	return c
}

// refusal is a call's refused outcome: the peer answered with a fault
// no resend changes, or the request could not be formed.
type refusal struct{ err error }

func (r *refusal) Error() string { return r.err.Error() }
func (r *refusal) Unwrap() error { return r.err }

// refuse marks err as a refused outcome; nil stays nil.
func refuse(err error) error {
	if err == nil {
		return nil
	}
	return &refusal{err}
}

// Refused reports whether a call ended refused: the peer answered with
// a 4xx fault other than 421 (a routing fault), 429 (throttled) and 499
// (the request was cancelled), or the request could not be formed (an
// unparsable base URL, a control character in the target, a message
// that does not encode). Every other outcome, a nil err aside, is not
// landed: a connect failure, a reset, a short read or undecodable 2xx
// body, a 5xx or 429, an open breaker, a routing fault, a stale or
// unfetchable shard map, the caller's context ending. Nothing known
// refused it, so a resend may land it: the relay's outbox parks and
// keeps exactly those, and a remote gateway reports them as the
// source being unavailable.
func Refused(err error) bool {
	var r *refusal
	return errors.As(err, &r)
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

// do runs one logical operation: breaker permit, HTTP attempt, response
// decode, outcome classification — repeated under the retry policy when
// configured. breaker names both the circuit and the retried operation.
// The request goes to path under base. decode (nil to skip) runs INSIDE
// the loop: a garbled or truncated 2xx body is a transient transfer
// failure and must trigger a fresh attempt, not a permanent error.
func (c *caller) do(ctx context.Context, breaker, method string, base *url.URL, path, contentType, accept, trace string, body []byte, decode func([]byte) error) error {
	return c.retrier.Do(ctx, breaker, func(ctx context.Context) error {
		release := func(bool) {}
		if c.breakers != nil {
			var err error
			if release, err = c.breakers.Breaker(breaker).Acquire(); err != nil {
				return err
			}
		}
		err := c.attempt(ctx, method, base, path, contentType, accept, trace, body, decode)
		release(breakerFailure(err))
		return err
	})
}

// attempt performs one HTTP round trip, bounded by the caller's
// timeout: the platform's round tripper puts the attempt's deadline on
// the connection, a foreign one (or an https call, which the platform's
// hands to http.DefaultTransport) gets it as a context. The request
// carries contentType and the accept preference when it has a body, the
// bearer token when one is configured, and the flow's trace — the
// explicit one, else the context's — as the legacy X-Trace-Id plus the
// W3C traceparent naming the caller's current span, so the server side
// parents its spans under it and the cross-process tree stays
// connected.
//
// Each outcome is classified once, here. A request that cannot be
// formed and a 4xx fault other than 421, 429 and 499 are refused (see
// Refused) and come back as the platform's sentinel errors. Everything
// else is not landed, and of that the retrier resends at this peer
// (resilience.Retryable) connection and read failures, 5xx and 429
// answers (with the server's Retry-After hint) and undecodable 2xx
// bodies — unless the caller's own context ended meanwhile: then a
// failure to connect or to read wraps the context's error and is not
// retried.
func (c *caller) attempt(ctx context.Context, method string, base *url.URL, path, contentType, accept, trace string, body []byte, decode func([]byte) error) error {
	if base == nil {
		return refuse(fmt.Errorf("transport: %s %s: %w", method, path, c.baseErr))
	}
	if !validTarget(path) {
		// Refused before a connection is taken, as url.Parse refuses
		// it: a CR or LF would end the request line early and let the
		// rest pass for a request of its own on the pooled connection.
		return refuse(fmt.Errorf("transport: %s %q: invalid control character in URL", method, path))
	}
	req := c.request(ctx, method, base, path, contentType, accept, trace, body)
	var resp *http.Response
	var err error
	if c.sync != nil && req.URL.Scheme == "http" {
		var deadline time.Time
		if c.timeout > 0 {
			deadline = time.Now().Add(c.timeout)
		}
		resp, err = c.sync.roundTrip(ctx, req, deadline)
	} else {
		actx := ctx
		if c.timeout > 0 {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(ctx, c.timeout)
			// Runs once the body below is read and closed, so the
			// connection goes back to the pool uncut.
			defer cancel()
		}
		if body != nil {
			req.GetBody = func() (io.ReadCloser, error) { return &payload{data: body}, nil }
		}
		resp, err = c.rt.RoundTrip(req.WithContext(actx))
	}
	if err != nil {
		// Wrapped as http.Client wraps it: the callback deliverer tells
		// a failure to reach the peer by its *url.Error.
		u := req.URL.Redacted()
		target := path
		if target == "" {
			target = u // a callback, whose URL is all of its target
		}
		return unreached(ctx, fmt.Errorf("transport: %s %s: %w", method, target,
			&url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: u, Err: err}))
	}
	data, err := readSized(resp.Body, resp.ContentLength)
	// A body read to its end has handed its connection back already; one
	// cut short (an error, or past maxBodyBytes) closes it.
	resp.Body.Close()
	if err != nil {
		// A truncated response says nothing about the next attempt.
		return unreached(ctx, fmt.Errorf("transport: read response: %w", err))
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return faultError(resp, data)
	}
	if decode == nil {
		return nil
	}
	if err := decode(data); err != nil {
		return resilience.MarkRetryable(fmt.Errorf("transport: decode response: %w", err))
	}
	return nil
}

// unreached classifies a failure to reach the peer or to read its
// answer: retryable at this peer, unless the caller's context ended,
// in which case the budget is gone and the error wraps the context's.
func unreached(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("%w: %w", err, cerr)
	}
	return resilience.MarkRetryable(err)
}

// outgoing is the request of one attempt and what it points at, in one
// allocation: its URL, its body and its trace header values.
type outgoing struct {
	req   http.Request
	url   url.URL
	body  payload
	trace [2]string
}

// The values of the content headers every call sends, shared: the
// round trippers read a request's header values and never write them.
var (
	xmlValue    = []string{event.ContentTypeXML}
	binaryValue = []string{event.ContentTypeBinary}
)

// headerValue returns v as a header's values.
func headerValue(v string) []string {
	switch v {
	case event.ContentTypeXML:
		return xmlValue
	case event.ContentTypeBinary:
		return binaryValue
	}
	return []string{v}
}

// request builds the request of one attempt: method on path (which may
// carry a query, and a fragment, which is cut off as url.Parse cuts it)
// under base, with the headers attempt names and a body the round
// tripper can rewind.
func (c *caller) request(ctx context.Context, method string, base *url.URL, path, contentType, accept, trace string, body []byte) *http.Request {
	o := &outgoing{url: *base}
	if path != "" {
		path, _, _ = strings.Cut(path, "#")
		p, q, _ := strings.Cut(path, "?")
		o.url.Path += p
		o.url.RawQuery = q
	}
	h := make(http.Header, 5)
	o.req = http.Request{Method: method, URL: &o.url, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: h}
	if body != nil {
		o.body.data = body
		o.req.Body, o.req.ContentLength = &o.body, int64(len(body))
		h["Content-Type"] = headerValue(contentType)
		if accept != "" {
			h["Accept"] = headerValue(accept)
		}
	}
	if c.auth != nil {
		h["Authorization"] = c.auth
	}
	if trace == "" {
		trace = telemetry.TraceFrom(ctx)
	}
	if trace != "" {
		o.trace = [2]string{trace, telemetry.FormatTraceparent(trace, telemetry.SpanIDFrom(ctx))}
		h[telemetry.TraceHeader] = o.trace[0:1:1]
		h["Traceparent"] = o.trace[1:2:2]
	}
	return &o.req
}

// readSized reads a request or response body of length n (-1 when
// unknown), at most maxBodyBytes of it: into one exactly-sized buffer
// when the length was announced (every writeBody answer and every
// platform request has it), else through io.ReadAll's growing buffer.
func readSized(body io.Reader, n int64) ([]byte, error) {
	if n >= 0 && n <= maxBodyBytes {
		data := make([]byte, n)
		_, err := io.ReadFull(body, data)
		return data, err
	}
	return io.ReadAll(io.LimitReader(body, maxBodyBytes))
}

// faultError reconstructs the platform error from a non-2xx answer's
// fault payload (XML or binary envelope), classified by its status:
// retryable for 5xx and 429, refused for every other 4xx but 421 and
// 499.
func faultError(resp *http.Response, data []byte) error {
	f, err := decodeEnvelope(data, readFault)
	if err == nil && f.Code != "" {
		err = errorFor(f)
	} else {
		err = fmt.Errorf("transport: http %d: %s", resp.StatusCode, data)
	}
	switch status := resp.StatusCode; {
	case transientStatus(status):
		return resilience.MarkRetryableAfter(err, retryAfterHeader(resp))
	case status >= 400 && status < 500 && status != http.StatusMisdirectedRequest && status != StatusClientClosedRequest:
		return refuse(err)
	}
	return err
}
