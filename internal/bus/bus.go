// Package bus implements the event distribution fabric of the CSS
// platform — the role played by the ServiceMix enterprise service bus in
// the paper's deployment. It is a topic-based publish/subscribe broker
// with named subscriptions that delivers each message once to each
// subscription of its topic.
//
// Each subscription owns a FIFO queue drained by a dedicated delivery
// goroutine, so a slow consumer delays only itself (the decoupling
// property that motivates EDA over point-to-point SOA in §3 of the
// paper). Queues are bounded by MaxPending: a full queue sheds the
// arriving message, so a publisher never blocks on a consumer and a
// wedged consumer holds at most MaxPending messages. A handler that
// fails is not called again for that message; the paper's temporal
// decoupling is the events index, which a consumer inquires to catch up.
package bus

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Message is one unit of distribution. The CSS controller publishes the
// stamped, redacted *event.Notification of each publication as the
// payload.
//
// Every subscription of the topic receives the same *Message, so
// handlers must treat it, payload included, as read-only. Sharing it is
// what keeps the publish fan-out free of per-subscription allocations.
type Message struct {
	// Payload is the published value, shared by every subscription.
	Payload any
	// SpanParent optionally carries the span ID of the publisher's
	// "bus.publish" span, so delivery-side spans parent under it and a
	// cross-goroutine trace stays one tree. The broker never interprets
	// it.
	SpanParent string
}

// Handler consumes a delivered message. The broker calls it once per
// message: an error or a panic is counted (Stats.Failed) and the message
// is dropped, never redelivered.
type Handler func(m *Message) error

// ErrClosed is returned when operating on a closed broker.
var ErrClosed = errors.New("bus: broker closed")

// overflowPolicy names what a full queue does with the arriving message
// (the policy label of css_bus_overflow_total).
const overflowPolicy = "shed-newest"

// Observer receives broker load signals. All callbacks must be fast and
// non-blocking (they run on publish and delivery paths); any field may
// be nil. The controller wires them to css_bus_* telemetry.
type Observer struct {
	// QueueDepth reports enqueue (+1) / dequeue (-1) transitions summed
	// over all subscriptions.
	QueueDepth func(delta int)
	// QueueHWM reports a new broker-wide queue-depth high-water mark.
	QueueHWM func(depth int)
	// Overflow reports one message a full queue shed, labeled with the
	// overflow policy ("shed-newest").
	Overflow func(policy string)
}

// Options configure a Broker.
type Options struct {
	// MaxPending bounds each subscription's queue: when it is full the
	// arriving message is shed. Zero means unbounded.
	MaxPending int
	// Observer receives load signals (queue depth, high-water marks,
	// overflow).
	Observer Observer
}

// Broker routes published messages to the subscriptions of their topic.
type Broker struct {
	opts Options

	mu     sync.RWMutex
	topics map[string]map[string]*Subscription // topic → name → sub
	closed bool

	published atomic.Uint64
	delivered atomic.Uint64
	failed    atomic.Uint64
	overflow  atomic.Uint64
	depth     atomic.Int64 // queued messages across all subscriptions
	depthHWM  atomic.Int64 // high-water mark of depth
}

// New creates a broker.
func New(opts Options) *Broker {
	return &Broker{opts: opts, topics: make(map[string]map[string]*Subscription)}
}

// Stats reports cumulative broker counters.
type Stats struct {
	Published  uint64 // messages accepted
	Delivered  uint64 // handler calls that returned nil
	Failed     uint64 // handler calls that returned an error or panicked
	Overflowed uint64 // messages shed by full queues
	QueueDepth int64  // currently queued messages, all subscriptions
	QueueHWM   int64  // high-water mark of QueueDepth
}

// noteEnqueue updates the depth accounting (and its high-water mark) for
// one message entering a subscription queue.
func (b *Broker) noteEnqueue() {
	d := b.depth.Add(1)
	if fn := b.opts.Observer.QueueDepth; fn != nil {
		fn(1)
	}
	for {
		hwm := b.depthHWM.Load()
		if d <= hwm {
			return
		}
		if b.depthHWM.CompareAndSwap(hwm, d) {
			if fn := b.opts.Observer.QueueHWM; fn != nil {
				fn(int(d))
			}
			return
		}
	}
}

// noteDequeue is the counterpart of noteEnqueue.
func (b *Broker) noteDequeue(n int) {
	if n == 0 {
		return
	}
	b.depth.Add(int64(-n))
	if fn := b.opts.Observer.QueueDepth; fn != nil {
		fn(-n)
	}
}

// noteOverflow counts one message a full queue shed.
func (b *Broker) noteOverflow() {
	b.overflow.Add(1)
	if fn := b.opts.Observer.Overflow; fn != nil {
		fn(overflowPolicy)
	}
}

// Subscribe registers a named subscription on a topic. The name
// identifies the subscription for Unsubscribe and diagnostics; (topic,
// name) pairs must be unique. The handler runs on the subscription's own
// goroutine, one message at a time, in publish order.
func (b *Broker) Subscribe(topic, name string, h Handler) (*Subscription, error) {
	if topic == "" || name == "" {
		return nil, errors.New("bus: empty topic or subscription name")
	}
	if h == nil {
		return nil, errors.New("bus: nil handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	subs := b.topics[topic]
	if subs == nil {
		subs = make(map[string]*Subscription)
		b.topics[topic] = subs
	}
	if _, dup := subs[name]; dup {
		return nil, fmt.Errorf("bus: subscription %q already exists on topic %q", name, topic)
	}
	s := &Subscription{
		broker:  b,
		topic:   topic,
		name:    name,
		handler: h,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	subs[name] = s
	go s.run()
	return s, nil
}

// Unsubscribe removes a subscription, stopping its delivery goroutine
// after the in-flight message (if any) completes. Pending undelivered
// messages are dropped.
func (b *Broker) Unsubscribe(topic, name string) error {
	b.mu.Lock()
	s := b.topics[topic][name]
	if s != nil {
		delete(b.topics[topic], name)
	}
	b.mu.Unlock()
	if s == nil {
		return fmt.Errorf("bus: no subscription %q on topic %q", name, topic)
	}
	s.shutdown(context.Background())
	return nil
}

// Publish hands payload to every subscription of topic without waiting
// on any consumer; spanParent rides along (see Message.SpanParent). The
// one message is shared by every subscription, so everyone downstream
// must treat payload as read-only.
func (b *Broker) Publish(topic string, payload any, spanParent string) error {
	if topic == "" {
		return errors.New("bus: empty topic")
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	m := &Message{Payload: payload, SpanParent: spanParent}
	// Snapshot the fan-out set, then enqueue outside the broker lock:
	// enqueue calls the caller's Observer, which must not run under the
	// broker mutex. The snapshot buffer is pooled — fan-out runs once per
	// publish and the slice never escapes this call.
	sp := fanoutPool.Get().(*[]*Subscription)
	subs := (*sp)[:0]
	for _, s := range b.topics[topic] {
		subs = append(subs, s)
	}
	b.mu.RUnlock()
	for _, s := range subs {
		s.enqueue(m)
	}
	clear(subs)
	*sp = subs[:0]
	fanoutPool.Put(sp)
	b.published.Add(1)
	return nil
}

// PublishPayloadSpan is Publish for callers that also hold an encoded
// form of payload. The broker carries only payload: body is not read,
// and the number returned is always 0.
//
// Deprecated: use Publish.
func (b *Broker) PublishPayloadSpan(topic string, body []byte, payload any, spanParent string) (uint64, error) {
	return 0, b.Publish(topic, payload, spanParent)
}

// fanoutPool recycles the per-publish subscription snapshot buffers.
var fanoutPool = sync.Pool{New: func() any { s := make([]*Subscription, 0, 16); return &s }}

// Flush blocks until every subscription's queue is empty and no handler
// is running, or the timeout elapses. It reports whether the broker
// drained. Tests and graceful shutdown use it.
func (b *Broker) Flush(timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return b.FlushContext(ctx) == nil
}

// FlushContext is Flush under a context: it blocks until the broker is
// drained or ctx is done. On abort it returns an error naming every
// wedged subscription (topic, name, queue depth, whether a handler is
// still in flight), so a hung drain in a test points at its culprit
// instead of a bare timeout.
//
// The poll interval backs off exponentially from 200µs to 5ms: a broker
// that drains quickly is noticed almost immediately, while a long drain
// does not pin a CPU busy-polling.
func (b *Broker) FlushContext(ctx context.Context) error {
	const (
		minPoll = 200 * time.Microsecond
		maxPoll = 5 * time.Millisecond
	)
	poll := minPoll
	for {
		if b.idle() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("bus: flush aborted (%v): %s", ctx.Err(), b.busyReport())
		case <-time.After(poll):
		}
		if poll < maxPoll {
			poll *= 2
			if poll > maxPoll {
				poll = maxPoll
			}
		}
	}
}

// busyReport describes every non-idle subscription for flush failures.
func (b *Broker) busyReport() string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var sb strings.Builder
	n := 0
	for topic, subs := range b.topics {
		for name, s := range subs {
			queued, inFlight := s.busy()
			if queued == 0 && !inFlight {
				continue
			}
			if n > 0 {
				sb.WriteString("; ")
			}
			n++
			fmt.Fprintf(&sb, "%s/%s: %d queued", topic, name, queued)
			if inFlight {
				sb.WriteString(", handler in flight")
			}
		}
	}
	if n == 0 {
		return "no busy subscriptions (drained after the deadline)"
	}
	return sb.String()
}

func (b *Broker) idle() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, subs := range b.topics {
		for _, s := range subs {
			queued, inFlight := s.busy()
			if queued > 0 || inFlight {
				return false
			}
		}
	}
	return true
}

// Close stops all subscriptions and rejects further operations. The
// in-flight delivery of each subscription completes; messages still
// queued are dropped (Flush first to deliver them).
func (b *Broker) Close() {
	b.CloseContext(context.Background())
}

// CloseContext is Close bounded by a deadline: a subscription whose
// handler is wedged mid-delivery is abandoned once ctx expires instead
// of blocking shutdown forever (the process is exiting; the goroutine
// leaks into it deliberately). It returns the first timeout hit, nil
// when every subscription settled.
func (b *Broker) CloseContext(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	var all []*Subscription
	for _, subs := range b.topics {
		for _, s := range subs {
			all = append(all, s)
		}
	}
	b.topics = make(map[string]map[string]*Subscription)
	b.mu.Unlock()
	var first error
	for _, s := range all {
		if err := s.shutdown(ctx); err != nil && first == nil {
			first = fmt.Errorf("bus: subscription %s on %s still delivering at close: %w", s.name, s.topic, err)
		}
	}
	return first
}
