package bus

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const flushTimeout = 5 * time.Second

// collector is a handler that records delivered messages.
type collector struct {
	mu   sync.Mutex
	msgs []*Message
}

func (c *collector) handle(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

// payloads returns the string payloads delivered so far, in order.
func (c *collector) payloads() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return payloadsOf(c.msgs)
}

func TestPublishDeliversToSubscriber(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var c collector
	if _, err := b.Subscribe("t1", "sub", c.handle); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := b.Publish("t1", "hello", ""); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if c.count() != 1 || c.payloads()[0] != "hello" {
		t.Errorf("delivered = %v", c.payloads())
	}
	st := b.Stats()
	if st.Published != 1 || st.Delivered != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTopicIsolation(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var c1, c2 collector
	b.Subscribe("a", "s", c1.handle)
	b.Subscribe("b", "s", c2.handle)
	b.Publish("a", "for-a", "")
	b.Flush(flushTimeout)
	if c1.count() != 1 || c2.count() != 0 {
		t.Errorf("topic leak: a=%d b=%d", c1.count(), c2.count())
	}
}

func TestFanOut(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	const subs = 16
	cols := make([]collector, subs)
	for i := range cols {
		if _, err := b.Subscribe("t", fmt.Sprintf("s%d", i), cols[i].handle); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		b.Publish("t", i, "")
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	for i := range cols {
		if cols[i].count() != 10 {
			t.Errorf("subscriber %d received %d messages, want 10", i, cols[i].count())
		}
	}
}

func TestPerSubscriptionOrdering(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var c collector
	b.Subscribe("t", "s", c.handle)
	const n = 500
	for i := 0; i < n; i++ {
		b.Publish("t", fmt.Sprintf("%05d", i), "")
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	got := c.payloads()
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order at %d: %q after %q", i, got[i], got[i-1])
		}
	}
}

// TestHandlerErrorIsNotRedelivered: a handler that fails is called once
// for that message, the failure is counted, and the next message is
// delivered as usual.
func TestHandlerErrorIsNotRedelivered(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var calls atomic.Int32
	var c collector
	b.Subscribe("t", "flaky", func(m *Message) error {
		calls.Add(1)
		if m.Payload == "poison" {
			return errors.New("consumer down")
		}
		return c.handle(m)
	})
	b.Publish("t", "poison", "")
	b.Publish("t", "fine", "")
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if calls.Load() != 2 {
		t.Errorf("handler called %d times for 2 messages, want 2", calls.Load())
	}
	if got := c.payloads(); len(got) != 1 || got[0] != "fine" {
		t.Errorf("delivered = %v, want [fine]", got)
	}
	if st := b.Stats(); st.Delivered != 1 || st.Failed != 1 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHandlerPanicIsContained(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var c collector
	var booms atomic.Int32
	b.Subscribe("t", "panicky", func(m *Message) error {
		if m.Payload == "boom" {
			booms.Add(1)
			panic("kaboom")
		}
		return c.handle(m)
	})
	b.Publish("t", "boom", "")
	b.Publish("t", "ok", "")
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if c.count() != 1 {
		t.Errorf("survivor message not delivered after panic: %d", c.count())
	}
	if booms.Load() != 1 {
		t.Errorf("panicking handler called %d times, want 1", booms.Load())
	}
	if st := b.Stats(); st.Failed != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v, want the panic counted as one failure", st)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var c collector
	b.Subscribe("t", "s", c.handle)
	b.Publish("t", "1", "")
	b.Flush(flushTimeout)
	if err := b.Unsubscribe("t", "s"); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	b.Publish("t", "2", "")
	b.Flush(flushTimeout)
	if c.count() != 1 {
		t.Errorf("received %d after unsubscribe, want 1", c.count())
	}
	if err := b.Unsubscribe("t", "s"); err == nil {
		t.Error("second Unsubscribe succeeded")
	}
}

func TestSubscribeValidation(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	if _, err := b.Subscribe("", "s", func(*Message) error { return nil }); err == nil {
		t.Error("empty topic accepted")
	}
	if _, err := b.Subscribe("t", "", func(*Message) error { return nil }); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := b.Subscribe("t", "s", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := b.Subscribe("t", "s", func(*Message) error { return nil }); err != nil {
		t.Errorf("valid subscribe failed: %v", err)
	}
	if _, err := b.Subscribe("t", "s", func(*Message) error { return nil }); err == nil {
		t.Error("duplicate subscription accepted")
	}
	if err := b.Publish("", nil, ""); err == nil {
		t.Error("empty topic publish accepted")
	}
}

func TestSubscriptionsListing(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	h := func(*Message) error { return nil }
	b.Subscribe("t", "a", h)
	b.Subscribe("t", "b", h)
	names := b.Subscriptions("t")
	if len(names) != 2 {
		t.Errorf("Subscriptions = %v", names)
	}
	if got := b.Subscriptions("empty-topic"); len(got) != 0 {
		t.Errorf("Subscriptions(empty) = %v", got)
	}
}

func TestPublishToTopicWithoutSubscribers(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	if err := b.Publish("nobody-listens", "x", ""); err != nil {
		t.Errorf("Publish without subscribers = %v", err)
	}
	if st := b.Stats(); st.Published != 1 {
		t.Errorf("Published = %d", st.Published)
	}
}

func TestClosedBroker(t *testing.T) {
	b := New(Options{})
	var c collector
	sub, _ := b.Subscribe("t", "s", c.handle)
	b.Publish("t", "pre-close", "")
	b.Flush(flushTimeout)
	b.Close()
	b.Close() // idempotent
	if err := b.Publish("t", nil, ""); err != ErrClosed {
		t.Errorf("Publish after Close = %v", err)
	}
	if _, err := b.Subscribe("t", "s2", c.handle); err != ErrClosed {
		t.Errorf("Subscribe after Close = %v", err)
	}
	if c.count() != 1 {
		t.Errorf("pre-close message lost: %d", c.count())
	}
	_ = sub
}

func TestSubscriptionAccessors(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	block := make(chan struct{})
	sub, _ := b.Subscribe("topic-x", "name-y", func(*Message) error {
		<-block
		return nil
	})
	if sub.Topic() != "topic-x" || sub.Name() != "name-y" {
		t.Errorf("accessors: %s/%s", sub.Topic(), sub.Name())
	}
	for i := 0; i < 5; i++ {
		b.Publish("topic-x", "m", "")
	}
	// One message in flight, some pending.
	deadline := time.Now().Add(flushTimeout)
	for sub.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p := sub.Pending(); p == 0 {
		t.Error("Pending never became non-zero while handler blocked")
	}
	close(block)
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if sub.Pending() != 0 {
		t.Errorf("Pending after flush = %d", sub.Pending())
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var c collector
	b.Subscribe("t", "s", c.handle)
	var wg sync.WaitGroup
	const pubs, per = 8, 100
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := b.Publish("t", "m", ""); err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if c.count() != pubs*per {
		t.Errorf("delivered %d, want %d", c.count(), pubs*per)
	}
	// Sequence numbers must be unique and monotonic per publish.
	if st := b.Stats(); st.Published != pubs*per {
		t.Errorf("Published = %d", st.Published)
	}
}

func TestFlushTimesOutOnStuckHandler(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	release := make(chan struct{})
	b.Subscribe("t", "stuck", func(*Message) error {
		<-release
		return nil
	})
	b.Publish("t", "x", "")
	if b.Flush(10 * time.Millisecond) {
		t.Error("Flush reported drained while handler stuck")
	}
	close(release)
	if !b.Flush(flushTimeout) {
		t.Error("Flush failed after release")
	}
}

// TestUnsubscribeDropsQueue: unsubscribing a subscription with messages
// still queued lets the in-flight delivery finish, delivers nothing
// more, and takes the dropped messages off the broker's queue depth.
func TestUnsubscribeDropsQueue(t *testing.T) {
	var depth atomic.Int64
	b := New(Options{Observer: Observer{QueueDepth: func(d int) { depth.Add(int64(d)) }}})
	defer b.Close()
	g := newGate()
	sub, _ := b.Subscribe("t", "slow", g.handle)
	b.Publish("t", "inflight", "")
	<-g.entered
	for i := 0; i < 3; i++ {
		b.Publish("t", fmt.Sprintf("q%d", i), "")
	}
	unsubscribed := make(chan error, 1)
	go func() { unsubscribed <- b.Unsubscribe("t", "slow") }()
	waitPending(t, sub, 0) // the queue is dropped before the handler returns
	close(g.release)
	if err := <-unsubscribed; err != nil {
		t.Fatal(err)
	}
	if got := g.c.payloads(); len(got) != 1 || got[0] != "inflight" {
		t.Errorf("delivered = %v, want only the in-flight message", got)
	}
	if st := b.Stats(); st.QueueDepth != 0 {
		t.Errorf("QueueDepth after Unsubscribe = %d", st.QueueDepth)
	}
	if depth.Load() != 0 {
		t.Errorf("observer depth sum = %d after Unsubscribe, want 0", depth.Load())
	}
}

// TestPublishPayloadSharedAcrossSubscriptions: one publish is one
// message — every subscription of the topic gets the very same *Message
// and payload value, with the publisher's span riding along. The encoded
// form PublishPayloadSpan accepts is not carried.
func TestPublishPayloadSharedAcrossSubscriptions(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	type decoded struct{ ID string }
	cols := make([]*collector, 3)
	for i := range cols {
		cols[i] = &collector{}
		if _, err := b.Subscribe("t", fmt.Sprintf("s%d", i), cols[i].handle); err != nil {
			t.Fatal(err)
		}
	}
	want := &decoded{ID: "evt-1"}
	if err := b.Publish("t", want, "span-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishPayloadSpan("t", []byte("<wire/>"), want, ""); err != nil {
		t.Fatal(err)
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("broker did not drain")
	}
	first := cols[0].msgs[0]
	for i, c := range cols {
		c.mu.Lock()
		if len(c.msgs) != 2 {
			t.Fatalf("sub %d got %d messages, want 2", i, len(c.msgs))
		}
		if c.msgs[0] != first {
			t.Errorf("sub %d got its own *Message, want the shared one", i)
		}
		for j, m := range c.msgs {
			if got, ok := m.Payload.(*decoded); !ok || got != want {
				t.Errorf("sub %d message %d payload = %v, want the shared instance", i, j, m.Payload)
			}
		}
		if c.msgs[0].SpanParent != "span-1" || c.msgs[1].SpanParent != "" {
			t.Errorf("sub %d span parents = %q, %q", i, c.msgs[0].SpanParent, c.msgs[1].SpanParent)
		}
		c.mu.Unlock()
	}
}

func TestFlushContextNamesWedgedHandler(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	release := make(chan struct{})
	b.Subscribe("labs", "slow-consumer", func(*Message) error {
		<-release
		return nil
	})
	b.Publish("labs", "x", "")
	b.Publish("labs", "y", "")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := b.FlushContext(ctx)
	if err == nil {
		t.Fatal("FlushContext returned nil while a handler was wedged")
	}
	// The error must say who is stuck, not just that something timed out.
	for _, want := range []string{"labs/slow-consumer", "in flight"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("FlushContext error %q does not mention %q", err, want)
		}
	}

	close(release)
	if err := b.FlushContext(context.Background()); err != nil {
		t.Fatalf("FlushContext after release: %v", err)
	}
}

func TestFlushContextCancel(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	release := make(chan struct{})
	defer close(release)
	b.Subscribe("t", "stuck", func(*Message) error {
		<-release
		return nil
	})
	b.Publish("t", "x", "")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.FlushContext(ctx) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(ctx.Err(), context.Canceled) || err == nil {
			t.Fatalf("FlushContext after cancel = %v", err)
		}
	case <-time.After(flushTimeout):
		t.Fatal("FlushContext did not return after cancel")
	}
}

func TestFlushContextEmptyBus(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	if err := b.FlushContext(context.Background()); err != nil {
		t.Fatalf("FlushContext on idle bus: %v", err)
	}
}
