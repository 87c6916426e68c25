package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/event"
	"repro/internal/schema"
)

// TestOnePublishOneSharedNotification: every subscription of a class is
// handed the very same stamped, redacted notification.
func TestOnePublishOneSharedNotification(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	const subs = 3
	var mu sync.Mutex
	var got []*event.Notification
	for i := 0; i < subs; i++ {
		if _, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(n *event.Notification) {
			mu.Lock()
			got = append(got, n)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	gid := w.producePublish(t, "src-1", "PRS-1")
	if !w.c.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != subs {
		t.Fatalf("delivered %d notifications, want %d", len(got), subs)
	}
	for i, n := range got {
		if n != got[0] {
			t.Errorf("subscription %d got its own notification, want the shared one", i)
		}
	}
	if n := got[0]; n.ID != gid || n.SourceID != "" || n.Trace == "" {
		t.Errorf("shared notification = %+v, want id %s, no source id, a trace", n, gid)
	}
}

// countingCodec counts the notifications encoded through it.
type countingCodec struct {
	event.Codec
	encodes atomic.Int32
}

func (c *countingCodec) EncodeNotification(n *event.Notification) ([]byte, error) {
	c.encodes.Add(1)
	return c.Codec.EncodeNotification(n)
}

// TestPublishEncodesNothing: the bus carries the notification itself, so
// a publish with subscribers encodes nothing, whatever Config.Codec is.
func TestPublishEncodesNothing(t *testing.T) {
	codec := &countingCodec{Codec: event.Binary}
	c, err := New(Config{DefaultConsent: true, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := &world{c: c}
	if err := c.RegisterProducer("hospital", "H"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterConsumer("family-doctor", "D"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	w.doctorPolicy(t)
	var delivered atomic.Int32
	if _, err := c.Subscribe("family-doctor", schema.ClassBloodTest, func(*event.Notification) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for _, src := range []event.SourceID{"src-1", "src-2"} {
		if _, err := c.Publish(&event.Notification{SourceID: src, Class: schema.ClassBloodTest,
			PersonID: "PRS-1", OccurredAt: c.Now(), Producer: "hospital"}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if delivered.Load() != 2 {
		t.Fatalf("delivered %d, want 2", delivered.Load())
	}
	if n := codec.encodes.Load(); n != 0 {
		t.Errorf("2 publishes encoded %d notifications, want 0", n)
	}
}

// TestFailingHandlerIsCalledOnce: a handler that panics is not called
// again for that notification, and neither it nor the subscription next
// to it misses the following one.
func TestFailingHandlerIsCalledOnce(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	var calls, healthy atomic.Int32
	if _, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(n *event.Notification) {
		if calls.Add(1) == 1 {
			panic("consumer bug")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(*event.Notification) {
		healthy.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	w.producePublish(t, "src-1", "PRS-1")
	w.producePublish(t, "src-2", "PRS-1")
	if !w.c.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("failing handler called %d times for 2 publishes, want 2", got)
	}
	if got := healthy.Load(); got != 2 {
		t.Errorf("healthy handler called %d times, want 2", got)
	}
	if got := counter(w.c, "css_deliveries_total"); got != 3 {
		t.Errorf("css_deliveries_total = %d, want 3 (the panic is not a delivery)", got)
	}
}
