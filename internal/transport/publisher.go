package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// DefaultDrainInterval is how often a QueuedPublisher retries its
// parked notifications when no publish kicks the drainer earlier.
const DefaultDrainInterval = 500 * time.Millisecond

// QueuedPublisher publishes notifications to a remote controller with a
// durable fallback: when a publish does not land (connection failure,
// 5xx, open breaker, a routing fault), the notification is parked in a
// store-backed outbox — one crash-atomic WAL batch per entry — and
// drained by a background loop with at-least-once semantics once the
// controller answers again. Replays are deduplicated by the
// controller's (producer, source id) idempotency, so the effect at the
// events index is exactly-once.
//
// This is the producer half of the paper's availability claim: a source
// system keeps emitting events during a controller outage, and the
// platform catches up instead of losing them.
type QueuedPublisher struct {
	client   EventPublisher
	outbox   *resilience.Outbox
	interval time.Duration

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	stopped bool
}

// EventPublisher is the publish surface the outbox drains into — a
// single-controller *Client or a cluster-routing *ShardedClient.
type EventPublisher interface {
	Publish(ctx context.Context, n *event.Notification) (event.GlobalID, error)
}

// NewQueuedPublisher wraps client with the outbox persisted in st.
// Entries surviving from a previous run begin draining immediately.
// drainInterval ≤ 0 means DefaultDrainInterval. metrics may be nil.
func NewQueuedPublisher(client EventPublisher, st *store.Store, metrics *resilience.Metrics, drainInterval time.Duration) (*QueuedPublisher, error) {
	ob, err := resilience.OpenOutbox(st, metrics)
	if err != nil {
		return nil, err
	}
	if drainInterval <= 0 {
		drainInterval = DefaultDrainInterval
	}
	q := &QueuedPublisher{
		client:   client,
		outbox:   ob,
		interval: drainInterval,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go q.drainLoop()
	return q, nil
}

// Publish attempts a direct publish; when it does not land (see
// Refused) the notification is parked durably and queued=true is
// returned with an empty global id (the controller assigns it at drain
// time). A refused publish (unknown producer, bad class, auth) is
// returned as-is — queueing cannot fix it.
func (q *QueuedPublisher) Publish(ctx context.Context, n *event.Notification) (gid event.GlobalID, queued bool, err error) {
	gid, err = q.client.Publish(ctx, n)
	if err == nil {
		return gid, false, nil
	}
	if Refused(err) {
		return "", false, err
	}
	if _, qerr := q.outbox.Enqueue(n); qerr != nil {
		// The fallback itself failed; surface the original cause too.
		return "", false, errors.Join(qerr, err)
	}
	q.kick()
	return "", true, nil
}

// kick nudges the drain loop without waiting for the ticker.
func (q *QueuedPublisher) kick() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Depth reports the pending outbox entries.
func (q *QueuedPublisher) Depth() int { return q.outbox.Depth() }

// Dead reports the dead-lettered outbox entries.
func (q *QueuedPublisher) Dead() int { return q.outbox.Dead() }

// LastKept reports why the latest drain round kept an entry that did
// not land (see resilience.Outbox.LastKept).
func (q *QueuedPublisher) LastKept() string { return q.outbox.LastKept() }

// DrainContext blocks until the outbox is empty or ctx expires, kicking
// the drain loop so parked notifications are pushed out immediately
// rather than on the next tick. It is the graceful-shutdown hook: a
// SIGTERM'd gateway gets one bounded chance to hand its backlog to the
// controller. On timeout the remaining entries are NOT lost — they stay
// durable in the WAL and resume draining on the next run; the returned
// error just reports how many were left behind.
func (q *QueuedPublisher) DrainContext(ctx context.Context) error {
	pause := 5 * time.Millisecond
	for {
		d := q.outbox.Depth()
		if d == 0 {
			return nil
		}
		q.kick()
		select {
		case <-ctx.Done():
			return fmt.Errorf("transport: outbox drain: %d entries still parked (durable, resume next run): %w", d, ctx.Err())
		case <-q.stop:
			return fmt.Errorf("transport: outbox drain: publisher closed with %d entries parked", d)
		case <-time.After(pause):
		}
		if pause < 80*time.Millisecond {
			pause *= 2
		}
	}
}

// Close stops the drain loop (pending entries stay durable for the next
// run).
func (q *QueuedPublisher) Close() {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return
	}
	q.stopped = true
	close(q.stop)
	q.mu.Unlock()
	<-q.done
}

// drainLoop retries parked notifications until the outbox is empty,
// waking on every failed publish and on a steady tick.
func (q *QueuedPublisher) drainLoop() {
	defer close(q.done)
	ticker := time.NewTicker(q.interval)
	defer ticker.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-q.wake:
		case <-ticker.C:
		}
		q.drainOnce()
	}
}

// drainOnce publishes queued entries oldest-first until the queue is
// empty or a publish does not land. A replayed entry the controller
// already indexed just returns the original global id — exactly-once
// at the index. Refused entries are dead-lettered so one poisoned
// notification cannot wedge the queue; every other entry is kept, and
// the round is counted and named by why (Outbox.Keep).
func (q *QueuedPublisher) drainOnce() {
	for {
		select {
		case <-q.stop:
			return
		default:
		}
		n, seq, ok, err := q.outbox.Next()
		if err != nil || !ok {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), q.interval*4)
		_, err = q.client.Publish(ctx, n)
		cancel()
		switch {
		case err == nil:
			if err := q.outbox.Ack(seq, n); err != nil {
				telemetry.Logger().Error("outbox ack failed",
					"producer", string(n.Producer), "source", string(n.SourceID), "err", err)
				return
			}
		case !Refused(err):
			// Not landed (the controller unreachable, a routing fault,
			// the deadline); try again next round.
			why := resilience.KeptUnreachable
			if errors.Is(err, cluster.ErrNotPrimary) || errors.Is(err, cluster.ErrWrongShard) ||
				errors.Is(err, cluster.ErrStaleMap) {
				why = resilience.KeptRouting
			}
			q.outbox.Keep(why)
			return
		default:
			telemetry.Logger().Error("outbox entry refused, dead-lettering",
				"producer", string(n.Producer), "source", string(n.SourceID), "err", err)
			if err := q.outbox.Reject(seq, n); err != nil {
				return
			}
		}
	}
}
