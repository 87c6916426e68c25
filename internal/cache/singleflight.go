// Package cache holds Group, a singleflight group that coalesces
// concurrent identical calls: the gateway fetch of the policy enforcer
// and the remote gateway client use it. Despite the package name it
// stores nothing: a result lives only while its call is in flight.
package cache

import (
	"context"
	"errors"
	"sync"
)

// ErrFlightAbandoned is reported to waiters when the leading call
// panicked before producing a result.
var ErrFlightAbandoned = errors.New("cache: in-flight call abandoned")

// Group coalesces concurrent calls that share a key: the first caller
// (the leader) runs fn; callers arriving while it is in flight wait and
// receive the same result. Results are never retained past the in-flight
// window — once the leader returns, the next call runs fn again. That
// makes the group safe for values that must not be cached (the
// controller may coalesce identical gateway detail fetches, but storing
// a detail would duplicate sensitive data outside the producer's
// control; see the E13 ablation).
//
// The zero value is ready to use. Safe for concurrent use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flight[V]
}

type flight[V any] struct {
	ctx  context.Context // the leader's
	done chan struct{}
	val  V
	err  error
}

// Do runs fn under key, coalescing concurrent duplicates. shared reports
// whether the result was produced by another caller's fn — callers that
// hand the value on must clone it when shared, so no two consumers ever
// alias one mutable result.
//
// fn runs under its caller's context, so a shared flight ends when its
// leader gives up. A follower handed the leader's context error while
// its own ctx is still live never abandoned anything: it runs the call
// again, leading the next flight or joining one already begun.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (val V, shared bool, err error) {
	var f *flight[V]
	for f == nil {
		g.mu.Lock()
		if g.calls == nil {
			g.calls = make(map[K]*flight[V])
		}
		lead, ok := g.calls[key]
		if !ok {
			f = &flight[V]{ctx: ctx, done: make(chan struct{}), err: ErrFlightAbandoned}
			g.calls[key] = f
		}
		g.mu.Unlock()
		if ok {
			<-lead.done
			if gaveUp := lead.ctx.Err(); gaveUp == nil || !errors.Is(lead.err, gaveUp) || ctx.Err() != nil {
				return lead.val, true, lead.err
			}
		}
	}

	// Even if fn panics the flight is finalized (waiters see
	// ErrFlightAbandoned instead of hanging) and the panic propagates.
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	return f.val, false, f.err
}

// InFlight returns the number of keys currently executing.
func (g *Group[K, V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
