package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/testsupport"
)

// chaosBlackout returns the scripted controller outage duration: short
// by default so `go test ./...` stays fast, stretched to a real outage
// by `make chaos` (CHAOS_BLACKOUT=5s).
func chaosBlackout() time.Duration {
	if v := os.Getenv("CHAOS_BLACKOUT"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return 400 * time.Millisecond
}

// chaosTransport is the round tripper of the chaos rigs: a
// FaultInjector on the call path every caller built with
// NewTunedTransport takes. The caller hands it the attempt's deadline as
// it hands it to the platform's round tripper, with no context derived
// for it, and the faults run in front of that round tripper's exchange.
type chaosTransport struct {
	*testsupport.FaultInjector
}

// attemptDeadline carries an attempt's deadline across the injector,
// which passes a request on as it got it, to the round tripper behind.
type attemptDeadline struct{}

func newChaosTransport(cfg testsupport.FaultConfig) chaosTransport {
	rt := NewTunedTransport().(*roundTripper)
	return chaosTransport{testsupport.NewFaultInjector(roundTripFunc(func(req *http.Request) (*http.Response, error) {
		deadline, _ := req.Context().Value(attemptDeadline{}).(time.Time)
		return rt.roundTrip(req.Context(), req, deadline)
	}), cfg)}
}

func (c chaosTransport) roundTrip(ctx context.Context, req *http.Request, deadline time.Time) (*http.Response, error) {
	return c.RoundTrip(req.WithContext(context.WithValue(ctx, attemptDeadline{}, deadline)))
}

// Every chaos rig runs the deadline path of the code that ships.
var _ deadlineRoundTripper = chaosTransport{}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// chaosRig is a distributed deployment with fault injectors on both
// remote hops: producer/consumer → controller (ctrlFaults) and
// controller → producer gateway (gwFaults).
type chaosRig struct {
	ctrl       *core.Controller
	gw         *gateway.Gateway
	client     *Client
	qp         *QueuedPublisher
	ctrlFaults chaosTransport
	gwFaults   chaosTransport
}

func newChaosRig(t *testing.T, seed int64) *chaosRig {
	t.Helper()
	ctrl, err := core.New(core.Config{
		MasterKey:      bytes.Repeat([]byte{7}, crypto.KeySize),
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
	if _, err := ctrl.DefinePolicy(&policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "exam-date", "hemoglobin"},
	}); err != nil {
		t.Fatal(err)
	}

	gw, err := gateway.New("hospital", store.OpenMemory(), ctrl.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	gwServer := newTestServer(t, testGatewayServer(gw))
	t.Cleanup(gwServer.Close)

	// Controller → gateway: a lighter fault rate (the detail path already
	// has the consumer-side faults in front of it) plus retries and a
	// breaker, exactly as a production controller would attach a remote
	// producer.
	gwFaults := newChaosTransport(testsupport.FaultConfig{
		Seed:           seed + 1000,
		ConnectFailure: 0.10,
	})
	rg := NewRemoteGateway(gwServer.URL, &http.Client{Transport: gwFaults, Timeout: 5 * time.Second},
		WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{
			MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: seed,
		})),
		WithBreakerGroup(resilience.NewGroup(resilience.BreakerConfig{OpenFor: 150 * time.Millisecond})))
	if err := ctrl.AttachGateway("hospital", rg); err != nil {
		t.Fatal(err)
	}

	ctrlServer := newTestServer(t, NewServer(ctrl))
	t.Cleanup(ctrlServer.Close)

	// Client → controller: the acceptance scenario's 20% connection
	// failures, plus response-side faults (synthesized 503s and truncated
	// bodies) that force the at-least-once replay path: the controller
	// indexed the event but the producer never saw the answer.
	ctrlFaults := newChaosTransport(testsupport.FaultConfig{
		Seed:           seed,
		ConnectFailure: 0.20,
		ServerError:    0.05,
		TruncateBody:   0.05,
	})
	client := NewClient(ctrlServer.URL, &http.Client{Transport: ctrlFaults, Timeout: 5 * time.Second},
		WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{
			MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: seed,
		})),
		WithBreakerGroup(resilience.NewGroup(resilience.BreakerConfig{OpenFor: 150 * time.Millisecond})))

	qp, err := NewQueuedPublisher(client, store.OpenMemory(), nil, 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(qp.Close)

	return &chaosRig{
		ctrl: ctrl, gw: gw, client: client, qp: qp,
		ctrlFaults: ctrlFaults, gwFaults: gwFaults,
	}
}

// TestChaosExactlyOnceUnderFaults is the acceptance scenario of the
// fault-injection harness: a producer publishes through the durable
// outbox while 20% of connections to the controller fail and the
// controller suffers one scripted blackout. Every publish must end up
// indexed exactly once, every permitted detail request must eventually
// succeed, and no detail request may be audited as a policy deny when
// the real cause was unavailability.
func TestChaosExactlyOnceUnderFaults(t *testing.T) {
	blackout := chaosBlackout()
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newChaosRig(t, seed)
			t.Logf("chaos seeds: controller-hop=%d gateway-hop=%d blackout=%s",
				r.ctrlFaults.Seed(), r.gwFaults.Seed(), blackout)

			const n = 24
			const person = "PRS-CHAOS"
			queued := 0
			for i := 0; i < n; i++ {
				src := event.SourceID(fmt.Sprintf("src-%02d", i))
				d := event.NewDetail(schema.ClassBloodTest, src, "hospital").
					Set("patient-id", person).
					Set("exam-date", "2010-05-30").
					Set("hemoglobin", "14.2").
					Set("aids-test", "negative")
				if err := r.gw.Persist(d); err != nil {
					t.Fatal(err)
				}
				if i == n/3 {
					// The controller disappears mid-storm.
					r.ctrlFaults.BlackoutFor(blackout)
				}
				_, q, err := r.qp.Publish(context.Background(), &event.Notification{
					SourceID: src, Class: schema.ClassBloodTest, PersonID: person,
					Summary: "blood test", Producer: "hospital",
					OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
				})
				if err != nil {
					t.Fatalf("publish %d rejected permanently: %v", i, err)
				}
				if q {
					queued++
				}
			}
			t.Logf("%d/%d publishes parked in the outbox", queued, n)

			// The outbox must drain once the blackout lifts.
			deadline := time.Now().Add(blackout + 30*time.Second)
			for r.qp.Depth() > 0 && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
			if d := r.qp.Depth(); d != 0 {
				t.Fatalf("outbox still holds %d entries after the blackout", d)
			}
			if dead := r.qp.Dead(); dead != 0 {
				t.Fatalf("%d publishes dead-lettered; none should be permanent rejections", dead)
			}

			// Exactly once at the index: n notifications, each global id
			// once. Replayed publishes must collapse onto the same id via
			// the controller's (producer, source) idempotency. (Source ids
			// are redacted from inquiry results, so the global id is the
			// observable identity.)
			notes, err := r.ctrl.InquireOwn(person, index.Inquiry{Limit: 10 * n})
			if err != nil {
				t.Fatal(err)
			}
			byID := map[event.GlobalID]int{}
			for _, note := range notes {
				byID[note.ID]++
			}
			if len(notes) != n || len(byID) != n {
				t.Fatalf("indexed %d notifications over %d distinct ids, want %d exactly once",
					len(notes), len(byID), n)
			}
			for id, count := range byID {
				if count != 1 {
					t.Errorf("event %s indexed %d times", id, count)
				}
			}

			// Every permitted detail request eventually succeeds despite the
			// injected faults on both hops.
			for _, note := range notes {
				var detail *event.Detail
				var lastErr error
				reqDeadline := time.Now().Add(30 * time.Second)
				for time.Now().Before(reqDeadline) {
					detail, lastErr = r.client.RequestDetails(context.Background(), &event.DetailRequest{
						Requester: "family-doctor", Class: schema.ClassBloodTest,
						EventID: note.ID, Purpose: event.PurposeHealthcareTreatment,
					})
					if lastErr == nil {
						break
					}
					if errors.Is(lastErr, enforcer.ErrDenied) {
						t.Fatalf("event %s: unavailability surfaced as a policy deny: %v", note.ID, lastErr)
					}
					time.Sleep(25 * time.Millisecond)
				}
				if lastErr != nil {
					t.Fatalf("event %s: details never succeeded: %v", note.ID, lastErr)
				}
				if v, _ := detail.Get("hemoglobin"); v != "14.2" {
					t.Fatalf("event %s: hemoglobin = %q", note.ID, v)
				}
				if _, leaked := detail.Get("aids-test"); leaked {
					t.Fatalf("event %s: chaos must not weaken filtering", note.ID)
				}
			}

			// The audit trail may record "unavailable" outcomes, never a
			// deny caused by a down gateway (the policy permits everything
			// this test requested).
			denies, err := r.ctrl.Audit().Search(audit.Query{
				Kind: audit.KindDetailRequest, Outcome: "deny",
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(denies) != 0 {
				t.Fatalf("audit logged %d denies; first: %+v", len(denies), denies[0])
			}
			t.Logf("controller-hop faults injected: %v", r.ctrlFaults.Injected())
		})
	}
}

// TestChaosSourceUnavailableAuditedDistinctly pins the controller-side
// degraded mode: when the producer's gateway is entirely dark, a
// permitted detail request fails with ErrSourceUnavailable across the
// wire — and the audit log says "unavailable", never "deny". Once the
// gateway returns, the same request succeeds.
func TestChaosSourceUnavailableAuditedDistinctly(t *testing.T) {
	r := newChaosRig(t, 42)
	src := event.SourceID("src-blackout")
	d := event.NewDetail(schema.ClassBloodTest, src, "hospital").
		Set("patient-id", "PRS-1").
		Set("exam-date", "2010-05-30").
		Set("hemoglobin", "13.9")
	if err := r.gw.Persist(d); err != nil {
		t.Fatal(err)
	}
	gid, _, err := r.qp.Publish(context.Background(), &event.Notification{
		SourceID: src, Class: schema.ClassBloodTest, PersonID: "PRS-1",
		Summary: "blood test", Producer: "hospital",
		OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	if gid == "" {
		// The publish was parked; wait for the drainer and look it up.
		deadline := time.Now().Add(10 * time.Second)
		for r.qp.Depth() > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		notes, err := r.ctrl.InquireOwn("PRS-1", index.Inquiry{Limit: 10})
		if err != nil || len(notes) != 1 {
			t.Fatalf("indexed %d notes (%v)", len(notes), err)
		}
		gid = notes[0].ID
	}

	// Take the gateway fully dark, beyond what the retrier can absorb.
	r.gwFaults.BlackoutFor(5 * time.Second)
	req := &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	}
	var unavailableErr error
	for attempt := 0; attempt < 20; attempt++ {
		if _, unavailableErr = r.client.RequestDetails(context.Background(), req); unavailableErr != nil &&
			errors.Is(unavailableErr, enforcer.ErrSourceUnavailable) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !errors.Is(unavailableErr, enforcer.ErrSourceUnavailable) {
		t.Fatalf("blackout error = %v, want ErrSourceUnavailable across the wire", unavailableErr)
	}
	if errors.Is(unavailableErr, enforcer.ErrDenied) {
		t.Fatalf("unavailability must not satisfy ErrDenied: %v", unavailableErr)
	}

	unavailable, err := r.ctrl.Audit().Search(audit.Query{
		Kind: audit.KindDetailRequest, Outcome: "unavailable", EventID: gid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(unavailable) == 0 {
		t.Fatal("no 'unavailable' audit record for the blacked-out fetch")
	}
	denies, err := r.ctrl.Audit().Search(audit.Query{
		Kind: audit.KindDetailRequest, Outcome: "deny", EventID: gid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(denies) != 0 {
		t.Fatalf("blacked-out fetch audited as deny: %+v", denies[0])
	}

	// Recovery: lift the blackout (a fresh zero-duration window) and the
	// same permitted request must succeed.
	r.gwFaults.BlackoutFor(0)
	var detail *event.Detail
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if detail, err = r.client.RequestDetails(context.Background(), req); err == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("details after recovery: %v", err)
	}
	if v, _ := detail.Get("hemoglobin"); v != "13.9" {
		t.Fatalf("hemoglobin after recovery = %q", v)
	}
}
