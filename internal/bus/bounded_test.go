package bus

import (
	"context"
	"errors"
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
	b.Publish("t", []byte("inflight"))
	select {
	case <-g.entered:
	case <-time.After(flushTimeout):
		t.Fatal("handler never entered")
	}
	for i := 0; i < max; i++ {
		b.Publish("t", []byte(fmt.Sprintf("q%02d", i)))
	}
	deadline := time.Now().Add(flushTimeout)
	for sub.Pending() < max && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p := sub.Pending(); p != max {
		t.Fatalf("queue depth = %d, want %d", p, max)
	}
}

// A full queue diverts the arriving message to the DLQ, keeps what it
// holds in order, and reports the overflow under the "shed-newest" label
// of css_bus_overflow_total.
func TestShedNewestDivertsArrival(t *testing.T) {
	b := New(Options{MaxPending: 2})
	var labels []string
	b.opts.Observer.Overflow = func(policy string) { labels = append(labels, policy) }
	defer b.Close()
	g := newGate()
	sub, _ := b.Subscribe("t", "slow", g.handle)
	fillQueue(t, b, sub, g, 2) // in flight + [q00 q01]
	b.Publish("t", []byte("newest"))
	dls := sub.DeadLetters()
	if len(dls) != 1 || string(dls[0].Body) != "newest" {
		t.Fatalf("DLQ after shed-newest = %v", bodiesOf(dls))
	}
	close(g.release)
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if got := g.c.bodies(); len(got) != 3 || got[2] != "q01" {
		t.Errorf("delivered = %v, want the queued messages in order", got)
	}
	if st := b.Stats(); st.Overflowed != 1 {
		t.Errorf("Overflowed = %d", st.Overflowed)
	}
	if len(labels) != 1 || labels[0] != "shed-newest" {
		t.Errorf("overflow labels = %v, want [shed-newest]", labels)
	}
}

func TestMaxDeadCapEvictsOldest(t *testing.T) {
	b := New(Options{MaxAttempts: 1, MaxDead: 2})
	var evicted atomic.Int64
	b.opts.Observer.DLQEvicted = func() { evicted.Add(1) }
	defer b.Close()
	sub, _ := b.Subscribe("t", "angry", func(*Message) error {
		return errors.New("always fails")
	})
	for i := 0; i < 5; i++ {
		b.Publish("t", []byte(fmt.Sprintf("m%d", i)))
	}
	if !b.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	dls := sub.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("DLQ length = %d, want the MaxDead cap of 2", len(dls))
	}
	// The survivors are the newest dead letters.
	if string(dls[0].Body) != "m3" || string(dls[1].Body) != "m4" {
		t.Errorf("DLQ survivors = %v, want [m3 m4]", bodiesOf(dls))
	}
	if st := b.Stats(); st.DLQEvicted != 3 {
		t.Errorf("DLQEvicted = %d, want 3", st.DLQEvicted)
	}
	if evicted.Load() != 3 {
		t.Errorf("observer saw %d evictions, want 3", evicted.Load())
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
		b.Publish("t", []byte("m"))
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

// TestCloseCapturesQueuedMessages: Close lets the in-flight delivery
// complete, and everything still queued lands in the drain snapshot
// instead of vanishing.
func TestCloseCapturesQueuedMessages(t *testing.T) {
	b := New(Options{})
	g := newGate()
	b.Subscribe("t", "slow", g.handle)
	b.Publish("t", []byte("inflight"))
	<-g.entered
	const queued = 5
	for i := 0; i < queued; i++ {
		b.Publish("t", []byte(fmt.Sprintf("q%d", i)))
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
	close(g.release)
	select {
	case <-closed:
	case <-time.After(flushTimeout):
		t.Fatal("Close never returned after the handler finished")
	}
	if got := g.c.count(); got != 1 {
		t.Errorf("in-flight deliveries completed = %d, want 1", got)
	}
	snap := b.DrainSnapshot()
	if len(snap) != queued {
		t.Fatalf("DrainSnapshot = %v, want %d messages", bodiesOf(snap), queued)
	}
	for i, m := range snap {
		if want := fmt.Sprintf("q%d", i); string(m.Body) != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, m.Body, want)
		}
	}
	if got := b.Stats().QueueDepth; got != 0 {
		t.Errorf("QueueDepth after Close = %d", got)
	}
}

// TestFlushContextDuringClose: a flush racing Close must return (either
// drained or with an error), never deadlock.
func TestFlushContextDuringClose(t *testing.T) {
	b := New(Options{})
	g := newGate()
	b.Subscribe("t", "slow", g.handle)
	b.Publish("t", []byte("inflight"))
	<-g.entered
	for i := 0; i < 3; i++ {
		b.Publish("t", []byte("q"))
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
				b.Publish("t", []byte("m"))
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

func bodiesOf(msgs []*Message) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = string(m.Body)
	}
	return out
}
