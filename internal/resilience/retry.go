package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// RetryPolicy configures a Retrier.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries, including the first. Zero means
	// DefaultMaxAttempts; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Zero means
	// DefaultBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. Zero means DefaultMaxDelay.
	MaxDelay time.Duration
	// Seed makes the jitter deterministic for reproducible tests. Zero
	// seeds from the clock.
	Seed int64
	// Metrics counts retry attempts (css_resilience_retries_total). Nil
	// disables.
	Metrics *Metrics
}

// Defaults for RetryPolicy.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 50 * time.Millisecond
	DefaultMaxDelay    = 2 * time.Second
)

// Retrier re-runs transient-failing operations under a policy of capped
// exponential backoff with full jitter (delay drawn uniformly from
// (0, min(MaxDelay, BaseDelay·2^attempt)]): the spread desynchronizes
// the retry herd a controller outage would otherwise create. Safe for
// concurrent use.
type Retrier struct {
	policy RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetrier creates a retrier; zero policy fields assume the defaults.
func NewRetrier(p RetryPolicy) *Retrier {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	seed := p.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Retrier{policy: p, rng: rand.New(rand.NewSource(seed))}
}

// Do runs op until it succeeds, fails permanently, exhausts the policy,
// or ctx is done. Only errors for which Retryable reports true are
// retried; everything else returns immediately. The error of the last
// attempt is returned (wrapped with the attempt count when retries
// happened), so errors.Is/As keep working against the underlying cause.
//
// op receives ctx unchanged; per-attempt timeouts belong to the caller
// (the transport's caller gives each try its own context.WithTimeout,
// ctx bounds the whole call).
func (r *Retrier) Do(ctx context.Context, op string, fn func(ctx context.Context) error) error {
	if r == nil {
		return fn(ctx)
	}
	var err error
	for attempt := 1; ; attempt++ {
		if err = ctx.Err(); err != nil {
			return err
		}
		// Each attempt is a child span (no-op unless the context carries a
		// tracer), so a chaos-run trace shows why a flow took 3 attempts.
		attemptCtx, span := telemetry.StartSpan(ctx, "retry.attempt")
		if span != nil {
			span.SetAttr("op", op)
			span.SetAttr("attempt", strconv.Itoa(attempt))
		}
		err = fn(attemptCtx)
		if err == nil || !Retryable(err) {
			span.SetError(err)
			span.End()
			return err
		}
		if span != nil {
			span.SetError(err)
			if errors.Is(err, ErrOpen) {
				span.AddEvent("breaker.open")
			}
		}
		if attempt >= r.policy.MaxAttempts {
			span.End()
			return fmt.Errorf("resilience: %s failed after %d attempts: %w", op, attempt, err)
		}
		delay := r.backoff(attempt)
		if after, ok := RetryAfterOf(err); ok && after > delay {
			delay = after
		}
		if span != nil {
			span.SetAttr("backoff", delay.String())
			span.End()
		}
		r.policy.Metrics.retry(op)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// backoff draws the full-jitter delay for the given 1-based attempt.
func (r *Retrier) backoff(attempt int) time.Duration {
	ceil := r.policy.BaseDelay
	for i := 1; i < attempt && ceil < r.policy.MaxDelay; i++ {
		ceil *= 2
	}
	if ceil > r.policy.MaxDelay {
		ceil = r.policy.MaxDelay
	}
	r.mu.Lock()
	d := time.Duration(r.rng.Int63n(int64(ceil))) + 1
	r.mu.Unlock()
	return d
}
