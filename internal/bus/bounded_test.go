package bus

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gate is a handler that blocks deliveries until released, recording
// what got through.
type gate struct {
	c       collector
	release chan struct{}
	entered chan struct{} // closed once the first delivery is in the handler
	once    sync.Once
}

func newGate() *gate {
	return &gate{release: make(chan struct{}), entered: make(chan struct{})}
}

func (g *gate) handle(m *Message) error {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.c.handle(m)
}

// fillQueue publishes until one message is in flight and the queue holds
// exactly max messages, so the next publish must overflow.
func fillQueue(t *testing.T, b *Broker, sub *Subscription, g *gate, max int) {
	t.Helper()
	b.Publish("t", "inflight", "")
	select {
	case <-g.entered:
	case <-time.After(flushTimeout):
		t.Fatal("handler never entered")
	}
	for i := 0; i < max; i++ {
		b.Publish("t", fmt.Sprintf("q%02d", i), "")
	}
	waitPending(t, sub, max)
}

// waitPending waits until sub holds exactly n queued messages.
func waitPending(t *testing.T, sub *Subscription, n int) {
	t.Helper()
	deadline := time.Now().Add(flushTimeout)
	for sub.Pending() != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p := sub.Pending(); p != n {
		t.Fatalf("queue depth = %d, want %d", p, n)
	}
}

// A full queue sheds the arriving message, keeps what it holds in order,
// and reports the overflow under the "shed-newest" label of
// css_bus_overflow_total. The shed message is never delivered.
func TestShedNewestDivertsArrival(t *testing.T) {
	b := New(Options{MaxPending: 2})
	var labels []string
	b.opts.Observer.Overflow = func(policy string) { labels = append(labels, policy) }
	defer b.Close()
	g := newGate()
	sub, _ := b.Subscribe("t", "slow", g.handle)
	fillQueue(t, b, sub, g, 2) // in flight + [q00 q01]
	b.Publish("t", "newest", "")
	if p := sub.Pending(); p != 2 {
		t.Fatalf("queue depth after shed-newest = %d, want 2", p)
	}
	close(g.release)
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if got := g.c.payloads(); len(got) != 3 || got[1] != "q00" || got[2] != "q01" {
		t.Errorf("delivered = %v, want the in-flight and queued messages in order", got)
	}
	if st := b.Stats(); st.Overflowed != 1 || st.Delivered != 3 {
		t.Errorf("stats = %+v, want 1 overflowed and 3 delivered", st)
	}
	if len(labels) != 1 || labels[0] != "shed-newest" {
		t.Errorf("overflow labels = %v, want [shed-newest]", labels)
	}
}

func TestQueueDepthAndHighWaterMark(t *testing.T) {
	var depth atomic.Int64
	var hwm atomic.Int64
	b := New(Options{Observer: Observer{
		QueueDepth: func(d int) { depth.Add(int64(d)) },
		QueueHWM:   func(d int) { hwm.Store(int64(d)) },
	}})
	defer b.Close()
	g := newGate()
	b.Subscribe("t", "slow", g.handle)
	const n = 8
	for i := 0; i < n; i++ {
		b.Publish("t", "m", "")
	}
	deadline := time.Now().Add(flushTimeout)
	for b.Stats().QueueHWM < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := b.Stats().QueueHWM; got < n-1 {
		// One message may dequeue into the handler before the rest land.
		t.Errorf("QueueHWM = %d, want >= %d", got, n-1)
	}
	close(g.release)
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if got := b.Stats().QueueDepth; got != 0 {
		t.Errorf("QueueDepth after drain = %d", got)
	}
	if depth.Load() != 0 {
		t.Errorf("observer depth sum = %d after drain, want 0", depth.Load())
	}
	if hwm.Load() < n-1 {
		t.Errorf("observer HWM = %d, want >= %d", hwm.Load(), n-1)
	}
}

// TestCloseDropsQueuedMessages: Close lets the in-flight delivery
// complete, delivers nothing still queued, and leaves no queue depth.
func TestCloseDropsQueuedMessages(t *testing.T) {
	var depth atomic.Int64
	b := New(Options{Observer: Observer{QueueDepth: func(d int) { depth.Add(int64(d)) }}})
	g := newGate()
	sub, _ := b.Subscribe("t", "slow", g.handle)
	b.Publish("t", "inflight", "")
	<-g.entered
	const queued = 5
	for i := 0; i < queued; i++ {
		b.Publish("t", fmt.Sprintf("q%d", i), "")
	}
	closed := make(chan struct{})
	go func() {
		b.Close() // blocks on the in-flight handler
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a delivery was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	waitPending(t, sub, 0)
	close(g.release)
	select {
	case <-closed:
	case <-time.After(flushTimeout):
		t.Fatal("Close never returned after the handler finished")
	}
	if got := g.c.payloads(); len(got) != 1 || got[0] != "inflight" {
		t.Errorf("delivered = %v, want only the in-flight message", got)
	}
	if got := b.Stats().QueueDepth; got != 0 {
		t.Errorf("QueueDepth after Close = %d", got)
	}
	if depth.Load() != 0 {
		t.Errorf("observer depth sum = %d after Close, want 0", depth.Load())
	}
}

// TestFlushContextDuringClose: a flush racing Close must return (either
// drained or with an error), never deadlock.
func TestFlushContextDuringClose(t *testing.T) {
	b := New(Options{})
	g := newGate()
	b.Subscribe("t", "slow", g.handle)
	b.Publish("t", "inflight", "")
	<-g.entered
	for i := 0; i < 3; i++ {
		b.Publish("t", "q", "")
	}
	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	flushed := make(chan error, 1)
	go func() { flushed <- b.FlushContext(ctx) }()
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	time.Sleep(10 * time.Millisecond)
	close(g.release)
	select {
	case <-closed:
	case <-time.After(flushTimeout):
		t.Fatal("Close deadlocked against FlushContext")
	}
	select {
	case <-flushed: // drained (nil) or aborted — both fine, just not stuck
	case <-time.After(flushTimeout):
		t.Fatal("FlushContext never returned during Close")
	}
}

// TestConcurrentPublishersBoundedQueue: under -race, hammering a bounded
// queue from many goroutines keeps the depth accounting exact.
func TestConcurrentPublishersBoundedQueue(t *testing.T) {
	b := New(Options{MaxPending: 4})
	defer b.Close()
	var c collector
	b.Subscribe("t", "s", c.handle)
	var wg sync.WaitGroup
	const pubs, per = 8, 50
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish("t", "m", "")
			}
		}()
	}
	wg.Wait()
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if got := b.Stats().QueueDepth; got != 0 {
		t.Errorf("QueueDepth after drain = %d", got)
	}
	st := b.Stats()
	if st.Delivered+st.Overflowed != pubs*per {
		t.Errorf("delivered %d + overflowed %d != %d", st.Delivered, st.Overflowed, pubs*per)
	}
}

func payloadsOf(msgs []*Message) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = m.Payload.(string)
	}
	return out
}
