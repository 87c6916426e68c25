package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/schema"
	"repro/internal/store"
)

// flakyFrontend proxies to a real controller server but can be switched
// into failure mode (everything answers 503) and counts requests.
type flakyFrontend struct {
	next     http.Handler
	failing  atomic.Bool
	requests atomic.Int64
}

func (f *flakyFrontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.requests.Add(1)
	if f.failing.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	f.next.ServeHTTP(w, r)
}

func newResilienceWorld(t *testing.T) (*core.Controller, *flakyFrontend, string) {
	t.Helper()
	ctrl, err := core.New(core.Config{
		MasterKey:      bytes.Repeat([]byte{9}, crypto.KeySize),
		DefaultConsent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	if err := ctrl.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("family-doctor", "Doctors"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	front := &flakyFrontend{next: NewServer(ctrl)}
	srv := newTestServer(t, front)
	t.Cleanup(srv.Close)
	return ctrl, front, srv.URL
}

// TestClientRetriesThroughTransientFailures: a 503 burst shorter than
// the retry allowance is invisible to the caller.
// doctorPolicy permits the family doctor the standard blood-test view.
func doctorPolicy() *policy.Policy {
	return &policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "exam-date", "hemoglobin"},
	}
}

func TestClientRetriesThroughTransientFailures(t *testing.T) {
	_, front, url := newResilienceWorld(t)
	client := NewClient(url, nil, WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1,
	})))

	// Fail exactly the first two attempts of the next call.
	front.failing.Store(true)
	fails := front.requests.Load() + 2
	done := make(chan struct{})
	go func() {
		defer close(done)
		for front.requests.Load() < fails {
			time.Sleep(100 * time.Microsecond)
		}
		front.failing.Store(false)
	}()
	if _, err := client.ReplStatus(context.Background()); err != nil {
		t.Fatalf("ReplStatus through transient 503s: %v", err)
	}
	<-done
}

// TestClientWithoutRetrierSurfacesTransients pins the default: no
// retrier means the first failure surfaces, marked retryable so a
// caller can make its own policy.
func TestClientWithoutRetrierSurfacesTransients(t *testing.T) {
	_, front, url := newResilienceWorld(t)
	client := NewClient(url, nil)
	front.failing.Store(true)
	_, err := client.ReplStatus(context.Background())
	if err == nil {
		t.Fatal("ReplStatus succeeded against a 503 frontend")
	}
	if !resilience.Retryable(err) {
		t.Fatalf("transient failure not marked retryable: %v", err)
	}
}

// TestClientBreakerFailsFastWhileOpen: once the breaker trips, calls
// are rejected locally — the dying endpoint stops receiving traffic.
func TestClientBreakerFailsFastWhileOpen(t *testing.T) {
	_, front, url := newResilienceWorld(t)
	client := NewClient(url, nil, WithBreakerGroup(resilience.NewGroup(resilience.BreakerConfig{
		ConsecutiveFailures: 3, ErrorRate: -1, OpenFor: time.Minute,
	})))
	front.failing.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := client.ReplStatus(context.Background()); err == nil {
			t.Fatal("ReplStatus succeeded against a 503 frontend")
		}
	}
	before := front.requests.Load()
	_, err := client.ReplStatus(context.Background())
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("call after trip = %v, want ErrOpen", err)
	}
	if got := front.requests.Load(); got != before {
		t.Fatalf("open breaker let %d request(s) through", got-before)
	}
	// The rejection carries the cooldown as a retry hint.
	if after, ok := resilience.RetryAfterOf(err); !ok || after <= 0 {
		t.Fatalf("open-breaker error carries no Retry-After hint: %v", err)
	}
}

// TestQueuedPublisherParksAndDrains: publishes during an outage are
// accepted durably and delivered exactly once after recovery.
func TestQueuedPublisherParksAndDrains(t *testing.T) {
	ctrl, front, url := newResilienceWorld(t)
	client := NewClient(url, nil, WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1,
	})))
	qp, err := NewQueuedPublisher(client, store.OpenMemory(), nil, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()

	front.failing.Store(true)
	for i := 0; i < 3; i++ {
		_, queued, err := qp.Publish(context.Background(), &event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("s%d", i)), Class: schema.ClassBloodTest,
			PersonID: "PRS-Q", Summary: "blood test", Producer: "hospital",
			OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
		})
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if !queued {
			t.Fatalf("publish %d not parked during the outage", i)
		}
	}
	if d := qp.Depth(); d != 3 {
		t.Fatalf("outbox depth = %d, want 3", d)
	}

	front.failing.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for qp.Depth() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if d := qp.Depth(); d != 0 {
		t.Fatalf("outbox depth after recovery = %d", d)
	}
	notes, err := ctrl.InquireOwn("PRS-Q", index.Inquiry{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 3 {
		t.Fatalf("indexed %d notifications, want 3", len(notes))
	}
}

// refusedDial fails every call as a refused connect. While stalled, it
// fails only once the caller's context has ended, as a connect that
// outlives the caller's budget does.
type refusedDial struct {
	stalled atomic.Bool
	calls   atomic.Int32
}

func (d *refusedDial) RoundTrip(req *http.Request) (*http.Response, error) {
	return d.roundTrip(req.Context(), req, time.Time{})
}

func (d *refusedDial) roundTrip(ctx context.Context, _ *http.Request, _ time.Time) (*http.Response, error) {
	d.calls.Add(1)
	if d.stalled.Load() {
		<-ctx.Done()
	}
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
}

// TestRelayKeepsEntryWhenContextEndsInConnectFailure: a drain whose
// context ends inside a failing connect keeps the entry in the outbox
// instead of dead-lettering it, and a relay publish cut short the same
// way is parked, not refused.
func TestRelayKeepsEntryWhenContextEndsInConnectFailure(t *testing.T) {
	dial := &refusedDial{}
	client := NewClient("http://127.0.0.1:1", &http.Client{Transport: dial})
	qp, err := NewQueuedPublisher(client, store.OpenMemory(), nil, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()
	publish := func(ctx context.Context, source event.SourceID) {
		t.Helper()
		_, queued, err := qp.Publish(ctx, &event.Notification{
			SourceID: source, Class: schema.ClassBloodTest,
			PersonID: "PRS-Q", Summary: "blood test", Producer: "hospital",
			OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
		})
		if err != nil || !queued {
			t.Fatalf("publish %s: queued %v, %v; want parked", source, queued, err)
		}
	}

	publish(context.Background(), "s-refused")
	// From here each drain attempt stalls for its whole 20 ms context,
	// then fails.
	dial.stalled.Store(true)
	calls := dial.calls.Load()
	deadline := time.Now().Add(5 * time.Second)
	for dial.calls.Load() < calls+4 && qp.Dead() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if depth, dead := qp.Depth(), qp.Dead(); depth != 1 || dead != 0 {
		t.Fatalf("outbox depth %d, dead %d after drains cut short; want 1 and 0", depth, dead)
	}
	if n := dial.calls.Load() - calls; n < 4 {
		t.Fatalf("%d drain attempts, want at least four", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	publish(ctx, "s-stalled")
	if depth, dead := qp.Depth(), qp.Dead(); depth != 2 || dead != 0 {
		t.Fatalf("outbox depth %d, dead %d; want 2 and 0", depth, dead)
	}
}

// TestResubscriberRepairsLostSubscription: a controller restart forgets
// in-memory subscriptions; the prober notices and re-subscribes.
func TestResubscriberRepairsLostSubscription(t *testing.T) {
	ctrlA, _, _ := newResilienceWorld(t)
	ctrlB, _, _ := newResilienceWorld(t)
	for _, c := range []*core.Controller{ctrlA, ctrlB} {
		if _, err := c.DefinePolicy(doctorPolicy()); err != nil {
			t.Fatal(err)
		}
	}

	// One URL, swappable backend — the "same address, restarted process"
	// topology a consumer actually faces.
	var backend atomic.Pointer[Server]
	backend.Store(NewServer(ctrlA))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()

	receiver := httptest.NewServer(NewNotificationReceiver(func(*event.Notification) {}))
	defer receiver.Close()

	changed := make(chan string, 1)
	client := NewClient(srv.URL, nil)
	sub, err := NewResubscriber(context.Background(), client, ResubscribeConfig{
		Actor: "family-doctor", Class: schema.ClassBloodTest, Callback: receiver.URL,
		Interval: 20 * time.Millisecond,
		OnChange: func(oldID, newID string) { changed <- newID },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	firstID := sub.ID()
	if !ctrlA.HasSubscription(firstID) {
		t.Fatalf("controller A does not hold %s", firstID)
	}

	// "Restart": same URL now fronts a controller with no subscriptions.
	backend.Store(NewServer(ctrlB))
	select {
	case newID := <-changed:
		// The id may coincide with the old one (both controllers mint
		// sequential ids); what matters is who holds it now.
		if !ctrlB.HasSubscription(newID) {
			t.Fatalf("controller B does not hold %s", newID)
		}
		if sub.ID() != newID {
			t.Fatalf("ID() = %s, want %s", sub.ID(), newID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription never re-established after the restart")
	}
}

// TestSubscriptionProbeOverTheWire pins the probe endpoint semantics:
// held ids answer active, unknown ids answer a typed fault that the
// client maps to (false, nil).
func TestSubscriptionProbeOverTheWire(t *testing.T) {
	r := newRig(t)
	if _, err := r.client.DefinePolicy(context.Background(), doctorPolicy()); err != nil {
		t.Fatal(err)
	}
	receiver := httptest.NewServer(NewNotificationReceiver(func(*event.Notification) {}))
	defer receiver.Close()
	id, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, receiver.URL)
	if err != nil {
		t.Fatal(err)
	}
	active, err := r.client.SubscriptionActive(context.Background(), id)
	if err != nil || !active {
		t.Fatalf("SubscriptionActive(%s) = %v, %v; want true, nil", id, active, err)
	}
	active, err = r.client.SubscriptionActive(context.Background(), "no-such-subscription")
	if err != nil || active {
		t.Fatalf("SubscriptionActive(unknown) = %v, %v; want false, nil", active, err)
	}
}
