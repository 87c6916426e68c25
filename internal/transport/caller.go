package transport

import (
	"bytes"
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
	base     string
	rt       http.RoundTripper
	token    string // optional bearer token (see WithToken)
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
	return c
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
// decode (nil to skip) runs INSIDE the loop: a garbled or truncated 2xx
// body is a transient transfer failure and must trigger a fresh attempt,
// not a permanent error.
func (c *caller) do(ctx context.Context, breaker, method, path, contentType, accept, trace string, body []byte, decode func([]byte) error) error {
	return c.retrier.Do(ctx, breaker, func(ctx context.Context) error {
		release := func(bool) {}
		if c.breakers != nil {
			var err error
			if release, err = c.breakers.Breaker(breaker).Acquire(); err != nil {
				return err
			}
		}
		err := c.attempt(ctx, method, path, contentType, accept, trace, body, decode)
		release(breakerFailure(err))
		return err
	})
}

// attempt performs one HTTP round trip, bounded by the caller's
// timeout. The request carries contentType and the accept preference
// when it has a body, the bearer token when one is configured, and the
// flow's trace — the explicit one, else the context's — as the legacy
// X-Trace-Id plus the W3C traceparent naming the caller's current span,
// so the server side parents its spans under it and the cross-process
// tree stays connected.
//
// Outcomes are classified for the retrier: connection failures (unless
// the caller's own deadline cut them short), 5xx and 429 answers (with
// the server's Retry-After hint), read failures mid-body and undecodable
// 2xx bodies are transient; 4xx faults stay permanent and come back as
// the platform's sentinel errors.
func (c *caller) attempt(ctx context.Context, method, path, contentType, accept, trace string, body []byte, decode func([]byte) error) error {
	actx := ctx
	if c.timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.timeout)
		// Runs after drainClose below: the body reaches EOF first, so
		// the connection goes back to the pool uncut.
		defer cancel()
	}
	var reader io.Reader
	if body != nil {
		// A fresh reader per attempt: retries must resend the full body.
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, reader)
	if err != nil {
		return fmt.Errorf("transport: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if trace == "" {
		trace = telemetry.TraceFrom(ctx)
	}
	if trace != "" {
		req.Header.Set(telemetry.TraceHeader, trace)
		req.Header.Set(telemetry.TraceparentHeader,
			telemetry.FormatTraceparent(trace, telemetry.SpanIDFrom(ctx)))
	}
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		// Wrapped as http.Client wraps it: the callback deliverer tells
		// a failure to reach the peer by its *url.Error.
		err = fmt.Errorf("transport: %s %s: %w", method, path,
			&url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: req.URL.Redacted(), Err: err})
		if ctx.Err() != nil {
			// The caller's deadline elapsed: not retryable, the budget
			// is gone.
			return err
		}
		return resilience.MarkRetryable(err)
	}
	defer drainClose(resp.Body)
	data, err := readResponse(resp)
	if err != nil {
		// A truncated response says nothing about the next attempt.
		return resilience.MarkRetryable(fmt.Errorf("transport: read response: %w", err))
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

// readResponse reads a response body, at most maxBodyBytes of it: into
// one exactly-sized buffer when the server announced the length (every
// writeBody answer does), else through io.ReadAll's growing buffer.
func readResponse(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxBodyBytes {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
}

// faultError reconstructs the platform error from a non-2xx answer's
// fault payload (XML or binary envelope).
func faultError(resp *http.Response, data []byte) error {
	f, err := decodeEnvelope(data, readFault)
	if err == nil && f.Code != "" {
		err = errorFor(f)
	} else {
		err = fmt.Errorf("transport: http %d: %s", resp.StatusCode, data)
	}
	if transientStatus(resp.StatusCode) {
		return resilience.MarkRetryableAfter(err, retryAfterHeader(resp))
	}
	return err
}
