package bus

import (
	"context"
	"sync"
	"time"
)

// Subscription is one durable consumer of a topic. Messages are delivered
// in publish order, one at a time, with bounded retries; exhausted
// messages land in the dead-letter queue (itself capped by MaxDead).
type Subscription struct {
	broker  *Broker
	topic   string
	name    string
	handler Handler

	qmu      sync.Mutex
	queue    []*Message // FIFO ring: live entries are queue[head:]
	head     int        // index of the next message to dequeue
	inFlight bool
	stopped  bool // set while shutting down: no further enqueues

	dlmu sync.Mutex
	dead []*Message

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	stopOnce sync.Once
}

// Topic returns the subscribed topic.
func (s *Subscription) Topic() string { return s.topic }

// Name returns the subscription name.
func (s *Subscription) Name() string { return s.name }

// Pending returns the number of queued, not-yet-delivered messages.
func (s *Subscription) Pending() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.queue) - s.head
}

// qlenLocked reports the live queue depth; qmu must be held.
func (s *Subscription) qlenLocked() int { return len(s.queue) - s.head }

// DeadLetters returns a snapshot of the messages that exhausted their
// delivery attempts (or were diverted by a full queue).
func (s *Subscription) DeadLetters() []*Message {
	s.dlmu.Lock()
	defer s.dlmu.Unlock()
	out := make([]*Message, len(s.dead))
	copy(out, s.dead)
	return out
}

// Redrive moves the dead letters back onto the subscription's queue for
// a fresh round of delivery attempts (an operator action after fixing
// the consumer). It returns the number of messages requeued. The
// requeued batch is bounded by the MaxDead cap, and it deliberately
// bypasses MaxPending: a redriven message must not bounce straight back
// to the DLQ.
func (s *Subscription) Redrive() int {
	s.dlmu.Lock()
	dead := s.dead
	s.dead = nil
	s.dlmu.Unlock()
	for _, m := range dead {
		cp := *m
		cp.Attempt = 1
		s.qmu.Lock()
		if s.stopped {
			s.qmu.Unlock()
			// Shutting down: park it back as a dead letter instead of
			// losing it on a queue nobody will drain.
			s.deadLetter(&cp)
			continue
		}
		s.queue = append(s.queue, &cp)
		s.qmu.Unlock()
		s.broker.noteEnqueue()
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return len(dead)
}

// enqueue places m on the queue. A queue already at MaxPending diverts
// m to the DLQ instead of growing without bound; the message stays
// recoverable via Redrive once the consumer catches up.
func (s *Subscription) enqueue(m *Message) {
	max := s.broker.opts.MaxPending
	s.qmu.Lock()
	if s.stopped {
		// The subscription is shutting down (broker Close). Keep the
		// accepted message observable in the drain snapshot.
		s.qmu.Unlock()
		s.broker.drainMu.Lock()
		s.broker.drained = append(s.broker.drained, m)
		s.broker.drainMu.Unlock()
		return
	}
	if max > 0 && s.qlenLocked() >= max {
		s.qmu.Unlock()
		s.deadLetter(m)
		s.broker.noteOverflow()
		return
	}
	s.queue = append(s.queue, m)
	s.qmu.Unlock()
	s.broker.noteEnqueue()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *Subscription) idle() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.qlenLocked() == 0 && !s.inFlight
}

// busy snapshots the queue depth and in-flight flag for flush reports.
func (s *Subscription) busy() (queued int, inFlight bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.qlenLocked(), s.inFlight
}

func (s *Subscription) dequeue() *Message {
	s.qmu.Lock()
	if s.qlenLocked() == 0 {
		s.qmu.Unlock()
		return nil
	}
	m := s.queue[s.head]
	s.queue[s.head] = nil // release the slot for GC
	s.head++
	if s.head == len(s.queue) {
		// Drained: reset so the backing array is reused from the front
		// instead of the slice marching through memory (queue[1:] kept the
		// prefix reachable and forced append to reallocate every cycle).
		s.queue = s.queue[:0]
		s.head = 0
	}
	s.inFlight = true
	s.qmu.Unlock()
	s.broker.noteDequeue(1)
	return m
}

func (s *Subscription) settled() {
	s.qmu.Lock()
	s.inFlight = false
	s.qmu.Unlock()
}

// drainRemaining marks the subscription stopped and hands back whatever
// was still queued, for the broker's Close drain snapshot. Must only be
// called after the delivery goroutine exited.
func (s *Subscription) drainRemaining() []*Message {
	s.qmu.Lock()
	s.stopped = true
	rest := s.queue[s.head:]
	s.queue = nil
	s.head = 0
	s.qmu.Unlock()
	s.broker.noteDequeue(len(rest))
	return rest
}

// run is the delivery loop. It checks stop before each dequeue so that
// shutdown halts after the in-flight delivery: the remaining queue is
// captured by drainRemaining, not raced out by this loop.
func (s *Subscription) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		m := s.dequeue()
		if m == nil {
			select {
			case <-s.wake:
				continue
			case <-s.stop:
				return
			}
		}
		s.deliver(m)
		s.settled()
	}
}

// deliver attempts the message up to MaxAttempts times. The first
// attempt hands the queued message to the handler directly — it already
// carries Attempt == 1 and handlers are bound by the read-only contract
// (see Message), so the common success path delivers to every
// subscription with zero copies. Retries are rare, so they take a
// private copy to stamp an accurate Attempt without racing sibling
// subscriptions that share the same message.
func (s *Subscription) deliver(m *Message) {
	max := s.broker.opts.MaxAttempts
	for attempt := 1; attempt <= max; attempt++ {
		h := m
		if attempt > 1 {
			cp := *m
			cp.Attempt = attempt
			h = &cp
		}
		err := s.safeHandle(h)
		if err == nil {
			s.broker.delivered.Add(1)
			return
		}
		if attempt < max {
			s.broker.redeliver.Add(1)
			select {
			case <-time.After(s.broker.opts.RetryBackoff):
			case <-s.stop:
				// Shutting down mid-retry: dead-letter so it is not lost
				// silently.
				s.deadLetter(m)
				return
			}
		}
	}
	s.deadLetter(m)
}

// safeHandle runs the handler, converting a panic into an error so one
// bad consumer cannot take down the broker (cf. Effective Go's server
// recovery pattern).
func (s *Subscription) safeHandle(m *Message) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError{r}
		}
	}()
	return s.handler(m)
}

type panicError struct{ v any }

func (p panicError) Error() string { return "bus: handler panic" }

// deadLetter parks m on the DLQ, evicting the oldest dead letter when
// the MaxDead cap is reached — a poison consumer must not OOM the broker
// through its dead letters either. Evictions are counted
// (Stats.DLQEvicted, css_bus_dlq_evicted_total), never silent.
func (s *Subscription) deadLetter(m *Message) {
	max := s.broker.opts.MaxDead
	s.dlmu.Lock()
	if max > 0 && len(s.dead) >= max {
		evicted := len(s.dead) - max + 1
		s.dead = append(s.dead[:0], s.dead[evicted:]...)
		s.dlmu.Unlock()
		s.broker.dlqEvict.Add(uint64(evicted))
		for i := 0; i < evicted; i++ {
			if fn := s.broker.opts.Observer.DLQEvicted; fn != nil {
				fn()
			}
		}
		s.dlmu.Lock()
	}
	s.dead = append(s.dead, m)
	s.dlmu.Unlock()
	s.broker.dead.Add(1)
}

func (s *Subscription) shutdown() {
	s.shutdownContext(context.Background())
}

// shutdownContext stops the delivery loop and waits for any in-flight
// delivery to settle, giving up when ctx expires. On timeout the
// delivery goroutine is abandoned to the exiting process — the wedged
// handler still holds its message, so nothing accepted is silently
// dropped; it simply never settled.
func (s *Subscription) shutdownContext(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stop) })
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
