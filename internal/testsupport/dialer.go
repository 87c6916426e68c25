package testsupport

import (
	"fmt"
	"math/rand"
	"sync"
)

// FlakyDialer wraps a connection dialer with seeded failures: each
// attempt rolls against rate and answers a synthetic refusal instead of
// dialing when it loses. The replication chaos tests feed it to the WAL
// shipper's Dial so follower links drop and reconnect deterministically
// mid-storm; the generic type keeps it usable for any string-addressed
// transport.
func FlakyDialer[C any](seed int64, rate float64, dial func(addr string) (C, error)) func(addr string) (C, error) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(addr string) (C, error) {
		mu.Lock()
		roll := rng.Float64()
		mu.Unlock()
		if roll < rate {
			var zero C
			return zero, fmt.Errorf("testsupport: injected dial failure to %s", addr)
		}
		return dial(addr)
	}
}

// Partitioner gates a dialer by destination address: Block makes every
// subsequent dial to an address fail fast with a synthetic refusal (a
// network partition, as seen from this node) until Heal restores it.
// The election chaos storms cut candidate→voter links mid-campaign with
// it, without touching the OS network stack.
type Partitioner[C any] struct {
	mu      sync.Mutex
	blocked map[string]bool
	dial    func(addr string) (C, error)
}

// NewPartitioner wraps dial with an initially fully-healed partition
// gate.
func NewPartitioner[C any](dial func(addr string) (C, error)) *Partitioner[C] {
	return &Partitioner[C]{blocked: make(map[string]bool), dial: dial}
}

// Block cuts the link to each address.
func (p *Partitioner[C]) Block(addrs ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range addrs {
		p.blocked[a] = true
	}
}

// Heal restores the link to each address.
func (p *Partitioner[C]) Heal(addrs ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range addrs {
		delete(p.blocked, a)
	}
}

// Dial connects unless the destination is blocked.
func (p *Partitioner[C]) Dial(addr string) (C, error) {
	p.mu.Lock()
	cut := p.blocked[addr]
	p.mu.Unlock()
	if cut {
		var zero C
		return zero, fmt.Errorf("testsupport: partitioned from %s", addr)
	}
	return p.dial(addr)
}
