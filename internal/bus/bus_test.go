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

// collector is a handler that records delivered bodies.
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

func (c *collector) bodies() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.msgs))
	for i, m := range c.msgs {
		out[i] = string(m.Body)
	}
	return out
}

func TestPublishDeliversToSubscriber(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var c collector
	if _, err := b.Subscribe("t1", "sub", c.handle); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	seq, err := b.Publish("t1", []byte("hello"))
	if err != nil || seq == 0 {
		t.Fatalf("Publish = %d, %v", seq, err)
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if c.count() != 1 || c.bodies()[0] != "hello" {
		t.Errorf("delivered = %v", c.bodies())
	}
	st := b.Stats()
	if st.Published != 1 || st.Delivered != 1 || st.DeadLetters != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTopicIsolation(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var c1, c2 collector
	b.Subscribe("a", "s", c1.handle)
	b.Subscribe("b", "s", c2.handle)
	b.Publish("a", []byte("for-a"))
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
		b.Publish("t", []byte{byte(i)})
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
		b.Publish("t", []byte(fmt.Sprintf("%05d", i)))
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	got := c.bodies()
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order at %d: %q after %q", i, got[i], got[i-1])
		}
	}
}

func TestRetryThenSuccess(t *testing.T) {
	b := New(Options{MaxAttempts: 3, RetryBackoff: time.Microsecond})
	defer b.Close()
	var calls atomic.Int32
	b.Subscribe("t", "flaky", func(m *Message) error {
		if calls.Add(1) < 3 {
			return errors.New("transient")
		}
		if m.Attempt != 3 {
			t.Errorf("Attempt = %d, want 3", m.Attempt)
		}
		return nil
	})
	b.Publish("t", []byte("x"))
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if calls.Load() != 3 {
		t.Errorf("handler called %d times, want 3", calls.Load())
	}
	st := b.Stats()
	if st.Delivered != 1 || st.Redelivered != 2 || st.DeadLetters != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeadLetterAfterExhaustion(t *testing.T) {
	b := New(Options{MaxAttempts: 2, RetryBackoff: time.Microsecond})
	defer b.Close()
	sub, _ := b.Subscribe("t", "angry", func(m *Message) error {
		return errors.New("always fails")
	})
	b.Publish("t", []byte("poison"))
	b.Publish("t", []byte("fine-too")) // also poisoned by this handler
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	dls := sub.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("dead letters = %d, want 2", len(dls))
	}
	if string(dls[0].Body) != "poison" {
		t.Errorf("dead letter body = %q", dls[0].Body)
	}
	if st := b.Stats(); st.DeadLetters != 2 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHandlerPanicIsContained(t *testing.T) {
	b := New(Options{MaxAttempts: 2, RetryBackoff: time.Microsecond})
	defer b.Close()
	var c collector
	sub, _ := b.Subscribe("t", "panicky", func(m *Message) error {
		if string(m.Body) == "boom" {
			panic("kaboom")
		}
		return c.handle(m)
	})
	b.Publish("t", []byte("boom"))
	b.Publish("t", []byte("ok"))
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if c.count() != 1 {
		t.Errorf("survivor message not delivered after panic: %d", c.count())
	}
	if len(sub.DeadLetters()) != 1 {
		t.Errorf("panicking message not dead-lettered")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var c collector
	b.Subscribe("t", "s", c.handle)
	b.Publish("t", []byte("1"))
	b.Flush(flushTimeout)
	if err := b.Unsubscribe("t", "s"); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	b.Publish("t", []byte("2"))
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
	if _, err := b.Publish("", nil); err == nil {
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
	if _, err := b.Publish("nobody-listens", []byte("x")); err != nil {
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
	b.Publish("t", []byte("pre-close"))
	b.Flush(flushTimeout)
	b.Close()
	b.Close() // idempotent
	if _, err := b.Publish("t", nil); err != ErrClosed {
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
		b.Publish("topic-x", []byte("m"))
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
				if _, err := b.Publish("t", []byte("m")); err != nil {
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
	b.Publish("t", []byte("x"))
	if b.Flush(10 * time.Millisecond) {
		t.Error("Flush reported drained while handler stuck")
	}
	close(release)
	if !b.Flush(flushTimeout) {
		t.Error("Flush failed after release")
	}
}

func TestRedrive(t *testing.T) {
	b := New(Options{MaxAttempts: 1})
	defer b.Close()
	var c collector
	broken := true
	sub, _ := b.Subscribe("t", "s", func(m *Message) error {
		if broken {
			return errors.New("consumer down")
		}
		return c.handle(m)
	})
	b.Publish("t", []byte("m1"))
	b.Publish("t", []byte("m2"))
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if len(sub.DeadLetters()) != 2 {
		t.Fatalf("dead letters = %d", len(sub.DeadLetters()))
	}
	// Operator fixes the consumer and redrives.
	broken = false
	if n := sub.Redrive(); n != 2 {
		t.Fatalf("Redrive = %d", n)
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out after redrive")
	}
	if c.count() != 2 {
		t.Errorf("redelivered %d, want 2", c.count())
	}
	if len(sub.DeadLetters()) != 0 {
		t.Errorf("dead letters after redrive = %d", len(sub.DeadLetters()))
	}
	got := c.bodies()
	if got[0] != "m1" || got[1] != "m2" {
		t.Errorf("redrive order = %v", got)
	}
	// Redrive with an empty DLQ is a no-op.
	if n := sub.Redrive(); n != 0 {
		t.Errorf("empty Redrive = %d", n)
	}
}

func TestMaxPendingOverflowsToDLQ(t *testing.T) {
	b := New(Options{MaxPending: 3})
	defer b.Close()
	release := make(chan struct{})
	var c collector
	sub, _ := b.Subscribe("t", "slow", func(m *Message) error {
		<-release
		return c.handle(m)
	})
	// One message goes in flight, three queue, the rest overflow.
	const published = 10
	for i := 0; i < published; i++ {
		b.Publish("t", []byte(fmt.Sprintf("m%02d", i)))
	}
	deadline := time.Now().Add(flushTimeout)
	for b.Stats().Overflowed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	st := b.Stats()
	if st.Overflowed == 0 {
		t.Fatal("no overflow recorded")
	}
	if st.Delivered+st.Overflowed != published {
		t.Errorf("delivered %d + overflowed %d != %d", st.Delivered, st.Overflowed, published)
	}
	// The overflowed messages are recoverable.
	if n := sub.Redrive(); uint64(n) != st.Overflowed {
		t.Errorf("Redrive = %d, want %d", n, st.Overflowed)
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush after redrive timed out")
	}
	if c.count() != published {
		t.Errorf("total delivered after redrive = %d, want %d", c.count(), published)
	}
}

// TestPublishPayloadSharedAcrossSubscriptions: the decoded payload fans
// out by reference — every subscription of the topic sees the very same
// value, and plain Publish leaves it nil.
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
	if _, err := b.PublishPayloadSpan("t", []byte("<wire/>"), want, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish("t", []byte("<bare/>")); err != nil {
		t.Fatal(err)
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("broker did not drain")
	}
	for i, c := range cols {
		c.mu.Lock()
		if len(c.msgs) != 2 {
			t.Fatalf("sub %d got %d messages, want 2", i, len(c.msgs))
		}
		if got, ok := c.msgs[0].Payload.(*decoded); !ok || got != want {
			t.Errorf("sub %d payload = %v, want the shared instance", i, c.msgs[0].Payload)
		}
		if c.msgs[1].Payload != nil {
			t.Errorf("sub %d: plain Publish carried payload %v", i, c.msgs[1].Payload)
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
	b.Publish("labs", []byte("x"))
	b.Publish("labs", []byte("y"))

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
	b.Publish("t", []byte("x"))

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
