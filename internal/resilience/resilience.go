// Package resilience provides the fault-tolerance building blocks of
// the distributed CSS deployment: a policy-driven retrier (capped
// exponential backoff with full jitter and Retry-After awareness), a
// per-endpoint three-state circuit breaker, a durable store-backed
// outbox for producer-side publishes, and a deterministic
// fault-injecting http.RoundTripper for chaos testing.
//
// The paper's availability claim — detail messages "remain retrievable
// months later, even when the source system is offline" (§4) — assumes
// producers, the data controller and consumers fail and recover
// independently. This package gives the wire-level deployment those
// properties. internal/transport wires these primitives through both
// remote paths (consumer/producer → controller, controller → producer
// gateway). Callback deliveries to consumers are not retried: a consumer
// that missed one catches up by inquiring the events index.
//
// Everything here is dependency-free beyond the repo's own store and
// telemetry packages, and near-zero-cost on the happy path: one mutex
// acquisition per breaker-guarded call, no allocation on a first-try
// success.
package resilience

import (
	"errors"
	"time"

	"repro/internal/telemetry"
)

// ErrOpen reports a call rejected because the endpoint's circuit
// breaker is open. The concrete error carries a RetryAfter hint (the
// remaining cooldown before a half-open probe is allowed).
var ErrOpen = errors.New("resilience: circuit open")

// retryAfterHint is implemented by errors that know how long the caller
// should wait before retrying (HTTP 429/503 Retry-After, a breaker's
// remaining cooldown). The Retrier stretches its backoff to honor it.
type retryAfterHint interface {
	RetryAfter() time.Duration
}

// RetryAfterOf extracts a retry-after hint from anywhere in err's chain.
// It returns 0, false when no hint is present.
func RetryAfterOf(err error) (time.Duration, bool) {
	var h retryAfterHint
	if errors.As(err, &h) {
		return h.RetryAfter(), true
	}
	return 0, false
}

// retryableError marks an error as transient.
type retryableError struct {
	err        error
	retryAfter time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }
func (e *retryableError) RetryAfter() time.Duration {
	return e.retryAfter
}

// MarkRetryable wraps err so Retryable reports true for it. A nil err
// returns nil.
func MarkRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// MarkRetryableAfter is MarkRetryable with an explicit server-supplied
// wait hint (e.g. a parsed Retry-After header).
func MarkRetryableAfter(err error, after time.Duration) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err, retryAfter: after}
}

// Retryable reports whether err is marked transient anywhere in its
// chain, or is a breaker rejection (which clears once the cooldown
// elapses, so waiting and retrying is meaningful).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var re *retryableError
	return errors.As(err, &re) || errors.Is(err, ErrOpen)
}

// Metrics bundles the css_resilience_* instruments. A nil *Metrics is
// valid and records nothing, so library code can thread it through
// unconditionally.
type Metrics struct {
	retries      *telemetry.Counter // css_resilience_retries_total{op}
	breakerGauge *telemetry.Gauge   // css_resilience_breaker_state{endpoint}
	transitions  *telemetry.Counter // css_resilience_breaker_transitions_total{endpoint,to}
	outboxDepth  *telemetry.Gauge   // css_resilience_outbox_depth
	outboxOps    *telemetry.Counter // css_resilience_outbox_ops_total{op}
}

// NewMetrics registers the resilience instruments on reg. A nil registry
// returns a nil *Metrics (metrics disabled).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		retries: reg.Counter("css_resilience_retries_total",
			"Retry attempts after a transient failure, by operation.", "op"),
		breakerGauge: reg.Gauge("css_resilience_breaker_state",
			"Circuit breaker state by endpoint (0 closed, 1 half-open, 2 open).", "endpoint"),
		transitions: reg.Counter("css_resilience_breaker_transitions_total",
			"Circuit breaker state transitions, by endpoint and target state.", "endpoint", "to"),
		outboxDepth: reg.Gauge("css_resilience_outbox_depth",
			"Notifications queued in the durable publish outbox."),
		outboxOps: reg.Counter("css_resilience_outbox_ops_total",
			"Outbox operations (enqueue, drain, dedup, dead, kept, kept_routing).", "op"),
	}
}

func (m *Metrics) retry(op string) {
	if m != nil {
		m.retries.Inc(op)
	}
}

func (m *Metrics) breakerState(endpoint string, s State) {
	if m != nil {
		m.breakerGauge.Set(float64(s), endpoint)
	}
}

func (m *Metrics) breakerTransition(endpoint string, to State) {
	if m != nil {
		m.transitions.Inc(endpoint, to.String())
	}
}

func (m *Metrics) outbox(op string, depth int) {
	if m != nil {
		m.outboxOps.Inc(op)
		m.outboxDepth.Set(float64(depth))
	}
}
