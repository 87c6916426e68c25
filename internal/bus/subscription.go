package bus

import (
	"context"
	"sync"
)

// Subscription is one consumer of a topic. Messages are delivered in
// publish order, one at a time, each once.
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
	queued, _ := s.busy()
	return queued
}

// qlenLocked reports the live queue depth; qmu must be held.
func (s *Subscription) qlenLocked() int { return len(s.queue) - s.head }

// enqueue places m on the queue. A queue already at MaxPending sheds m
// instead of growing without bound, and so does a subscription that is
// shutting down.
func (s *Subscription) enqueue(m *Message) {
	max := s.broker.opts.MaxPending
	s.qmu.Lock()
	if s.stopped {
		s.qmu.Unlock()
		return
	}
	if max > 0 && s.qlenLocked() >= max {
		s.qmu.Unlock()
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

// busy snapshots the queue depth and in-flight flag.
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

// run is the delivery loop. It checks stop before each dequeue so that
// shutdown halts after the in-flight delivery.
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
		if err := s.safeHandle(m); err != nil {
			s.broker.failed.Add(1)
		} else {
			s.broker.delivered.Add(1)
		}
		s.settled()
	}
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

// shutdown stops the delivery loop, drops whatever is still queued, and
// waits for any in-flight delivery to settle, giving up when ctx
// expires. On timeout the delivery goroutine is abandoned to the exiting
// process with the one message its wedged handler holds.
func (s *Subscription) shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.qmu.Lock()
	s.stopped = true
	dropped := s.qlenLocked()
	s.queue, s.head = nil, 0
	s.qmu.Unlock()
	s.broker.noteDequeue(dropped)
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
