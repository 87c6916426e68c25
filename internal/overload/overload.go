// Package overload is the server-side overload-protection layer of the
// CSS platform: a weighted admission controller with per-endpoint
// concurrency limits, per-actor token-bucket rate limits, and a
// priority-aware load shedder that drops index inquiries and browse
// queries before it ever touches a notification publish.
//
// The paper's data controller is a shared rooting node (§4, Fig. 2):
// every social and health source system publishes through it, so one
// flooding producer or one wedged consumer must degrade only its own
// traffic. PR 4 made the *clients* resilient (retries, breakers, durable
// outbox); this package makes the *server* survivable: requests beyond
// capacity fail fast with 429 + Retry-After — which the existing
// retriers already honor — instead of queueing without bound and slowing
// every tenant equally.
//
// Shed order under pressure (lowest priority first):
//
//	Low      index inquiries, audit/catalog/policy queries
//	Normal   detail requests, subscriptions, policy/consent writes
//	Critical notification publishes (the platform's source of truth)
//
// A Gate also owns the draining state used for graceful shutdown: after
// BeginDrain every new request is rejected (503, Retry-After) while
// requests already admitted run to completion, so SIGTERM can stop
// admission, drain the bus and outbox, fsync and exit without losing an
// accepted publish.
package overload

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Priority orders request classes for the load shedder. Higher values
// survive longer under pressure.
type Priority int

const (
	// Low is shed first: queries are reconstructible.
	Low Priority = iota
	// Normal is the default request class (detail requests, writes).
	Normal
	// Critical is shed last: notification publishes carry state the
	// producer may not be able to replay.
	Critical
)

// String returns the metric label of the priority.
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case Normal:
		return "normal"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// Shed reasons recorded in css_overload_shed_total{reason}.
const (
	ReasonConcurrency = "concurrency" // endpoint concurrency limit hit
	ReasonPressure    = "pressure"    // global saturation shed this priority
	ReasonRate        = "rate"        // per-actor token bucket empty
	ReasonDraining    = "draining"    // gate is draining for shutdown
)

// Fractions of the global in-flight budget beyond which a priority class
// is shed. Critical admits until the budget is exhausted.
const (
	lowPressureFraction    = 0.50
	normalPressureFraction = 0.85
)

// Config tunes a Gate. The zero value of any field selects its default.
type Config struct {
	// MaxInFlight bounds requests being served concurrently across all
	// endpoints (the global budget the shedder grades by priority).
	// Zero means DefaultMaxInFlight; negative disables the global bound.
	MaxInFlight int
	// Endpoint bounds concurrency per endpoint name, overriding the
	// global budget check for nothing — both must pass. Endpoints not
	// listed are limited only by the global budget.
	Endpoint map[string]int
	// ActorRPS is the steady per-actor admission rate (token-bucket
	// refill, tokens per second). Zero means DefaultActorRPS; negative
	// disables per-actor limiting. Each actor's bucket holds 2×ActorRPS
	// tokens (at least 1).
	ActorRPS float64
	// Metrics receives css_overload_*. Nil creates a private registry.
	Metrics *telemetry.Registry
	// Now injects a clock for the token buckets (tests). Nil: time.Now.
	Now func() time.Time
}

// Defaults for Config.
const (
	DefaultMaxInFlight = 256
	DefaultActorRPS    = 50.0
)

// ShedRetryAfter is the pacing hint every shed request carries.
const ShedRetryAfter = 1 * time.Second

// Decision is the outcome of one admission check.
type Decision struct {
	// Admitted reports whether the request may proceed. When true the
	// caller must call Release exactly once after the request finishes.
	Admitted bool
	// Reason is the shed reason (Reason* constants) when not admitted.
	Reason string
	// RetryAfter is the pacing hint for the client when not admitted.
	RetryAfter time.Duration
}

// Gate is the admission controller. Safe for concurrent use.
type Gate struct {
	cfg      Config
	now      func() time.Time
	inflight atomic.Int64
	draining atomic.Bool

	epMu       sync.Mutex
	epInflight map[string]*atomic.Int64

	actors *bucketTable

	admitted     *telemetry.Counter
	shed         *telemetry.Counter
	inflightG    *telemetry.Gauge
	drainSeconds *telemetry.Gauge
}

// NewGate creates an admission controller.
func NewGate(cfg Config) *Gate {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.ActorRPS == 0 {
		cfg.ActorRPS = DefaultActorRPS
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	g := &Gate{
		cfg:        cfg,
		now:        now,
		epInflight: make(map[string]*atomic.Int64),
		admitted: reg.Counter("css_overload_admitted_total",
			"Requests admitted by the overload gate, by priority.", "priority"),
		shed: reg.Counter("css_overload_shed_total",
			"Requests shed by the overload gate, by priority and reason.",
			"priority", "reason"),
		inflightG: reg.Gauge("css_overload_inflight",
			"Requests currently admitted and running."),
		drainSeconds: reg.Gauge("css_overload_drain_seconds",
			"Duration of the last graceful drain, in seconds."),
	}
	if cfg.ActorRPS > 0 {
		g.actors = newBucketTable(cfg.ActorRPS, max(2*cfg.ActorRPS, 1), now)
	}
	return g
}

// endpointCounter returns the in-flight counter of an endpoint with a
// configured limit, nil otherwise.
func (g *Gate) endpointCounter(endpoint string) *atomic.Int64 {
	if _, ok := g.cfg.Endpoint[endpoint]; !ok {
		return nil
	}
	g.epMu.Lock()
	defer g.epMu.Unlock()
	c, ok := g.epInflight[endpoint]
	if !ok {
		c = new(atomic.Int64)
		g.epInflight[endpoint] = c
	}
	return c
}

// budgetFor returns the in-flight budget available to a priority class:
// the global cap scaled down for sheddable classes, so Low and Normal
// requests are refused while Critical traffic still fits.
func (g *Gate) budgetFor(pri Priority) int64 {
	max := int64(g.cfg.MaxInFlight)
	switch pri {
	case Low:
		return int64(float64(max) * lowPressureFraction)
	case Normal:
		return int64(float64(max) * normalPressureFraction)
	default:
		return max
	}
}

// Admit runs the admission checks for one request: draining state, the
// endpoint concurrency limit, the priority-graded global budget, and
// last the per-actor token bucket — a request shed for concurrency or
// pressure did no work and must not spend one of its actor's tokens, or
// a burst against a full server drains the bucket on sheds alone. On
// admission the returned release must be called exactly once when the
// request completes; on shed it is nil.
//
// actor keys the rate limit (token subject, or remote host when the
// deployment runs unauthenticated); an empty actor skips rate limiting.
func (g *Gate) Admit(endpoint string, pri Priority, actor string) (release func(), d Decision) {
	shed := func(reason string) (func(), Decision) {
		g.shed.Inc(pri.String(), reason)
		return nil, Decision{Reason: reason, RetryAfter: ShedRetryAfter}
	}
	if g.draining.Load() {
		return shed(ReasonDraining)
	}

	// Endpoint limit first (cheap: one atomic), then the global budget.
	var epCount *atomic.Int64
	if epCount = g.endpointCounter(endpoint); epCount != nil {
		limit := int64(g.cfg.Endpoint[endpoint])
		if epCount.Add(1) > limit {
			epCount.Add(-1)
			return shed(ReasonConcurrency)
		}
	}
	if g.cfg.MaxInFlight > 0 {
		if g.inflight.Add(1) > g.budgetFor(pri) {
			g.inflight.Add(-1)
			if epCount != nil {
				epCount.Add(-1)
			}
			return shed(ReasonPressure)
		}
	} else {
		g.inflight.Add(1)
	}
	if g.actors != nil && actor != "" && !g.actors.take(actor) {
		g.inflight.Add(-1)
		if epCount != nil {
			epCount.Add(-1)
		}
		return shed(ReasonRate)
	}

	g.admitted.Inc(pri.String())
	g.inflightG.Set(float64(g.inflight.Load()))
	var once sync.Once
	return func() {
		once.Do(func() {
			g.inflight.Add(-1)
			if epCount != nil {
				epCount.Add(-1)
			}
			g.inflightG.Set(float64(g.inflight.Load()))
		})
	}, Decision{Admitted: true}
}

// InFlight reports the number of currently admitted requests.
func (g *Gate) InFlight() int { return int(g.inflight.Load()) }

// BeginDrain flips the gate into draining: every subsequent Admit is
// refused with ReasonDraining while already-admitted requests finish.
func (g *Gate) BeginDrain() { g.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (g *Gate) Draining() bool { return g.draining.Load() }

// RecordDrainDuration publishes the duration of a completed drain on
// css_overload_drain_seconds.
func (g *Gate) RecordDrainDuration(d time.Duration) {
	g.drainSeconds.Set(d.Seconds())
}

// RetryAfterSeconds renders a retry hint (typically Decision.RetryAfter)
// for an HTTP header (minimum 1 second — Retry-After has whole-second
// resolution).
func RetryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
