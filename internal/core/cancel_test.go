package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/enforcer"
	"repro/internal/event"
)

// countingSource wraps a detail source, counting fetches that reach the
// producer side.
type countingSource struct {
	inner enforcer.DetailSource
	calls atomic.Int64
}

func (s *countingSource) GetResponse(src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	s.calls.Add(1)
	return s.inner.GetResponse(src, fields)
}

// TestCancelledDetailRequestStopsBeforeGatewayFetch: a detail request
// whose context is already cancelled must not reach the producer's
// gateway, and the audit trail must record outcome "cancelled" — never
// "deny", because no policy decision was rendered against the consumer.
func TestCancelledDetailRequestStopsBeforeGatewayFetch(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "bt-cancel", "PERSON-C")
	w.doctorPolicy(t)

	counting := &countingSource{inner: w.gw}
	if err := w.c.AttachGateway("hospital", counting); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the consumer hung up before the request was processed

	d, err := w.c.RequestDetailsContext(ctx, w.request(gid))
	if d != nil {
		t.Fatal("cancelled request released a detail")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if errors.Is(err, enforcer.ErrDenied) {
		t.Fatal("cancellation surfaced as a policy denial")
	}
	if got := counting.calls.Load(); got != 0 {
		t.Fatalf("gateway fetched %d times for a cancelled request", got)
	}

	recs, aerr := w.c.Audit().Search(audit.Query{Kind: audit.KindDetailRequest})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if len(recs) != 1 {
		t.Fatalf("audit records = %d, want 1", len(recs))
	}
	if recs[0].Outcome != "cancelled" {
		t.Fatalf("audit outcome = %q, want \"cancelled\"", recs[0].Outcome)
	}

	// The same request with a live context succeeds — nothing about the
	// cancellation poisoned later flows.
	if _, err := w.c.RequestDetailsContext(context.Background(), w.request(gid)); err != nil {
		t.Fatalf("follow-up request failed: %v", err)
	}
	if got := counting.calls.Load(); got != 1 {
		t.Fatalf("gateway fetches after live request = %d, want 1", got)
	}
	denied, _ := w.c.Audit().Search(audit.Query{Kind: audit.KindDetailRequest, Outcome: "deny"})
	if len(denied) != 0 {
		t.Fatalf("deny records = %d, want none", len(denied))
	}
}

// TestCancelledMidFlowAuditsCancelled: a context that expires after the
// consent check but before the enforcer's gateway step still yields
// outcome "cancelled" (the enforcer's pre-fetch check catches it).
func TestCancelledMidFlowAuditsCancelled(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "bt-cancel-2", "PERSON-D")
	w.doctorPolicy(t)

	counting := &countingSource{inner: w.gw}
	if err := w.c.AttachGateway("hospital", counting); err != nil {
		t.Fatal(err)
	}

	// A deadline in the past: ctx.Err() is non-nil at the enforcer's
	// pre-fetch check even though entry validation already passed once.
	ctx, cancel := context.WithDeadline(context.Background(), w.now.Add(-time.Hour))
	defer cancel()
	_, err := w.c.RequestDetailsContext(ctx, w.request(gid))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if got := counting.calls.Load(); got != 0 {
		t.Fatalf("gateway fetched %d times past the deadline", got)
	}
}

// hangUpSource is a context-aware detail source whose first fetch hangs
// until its caller gives up; later fetches go through to the gateway.
type hangUpSource struct {
	inner   enforcer.DetailSource
	calls   atomic.Int64
	entered chan struct{}
}

func (s *hangUpSource) GetResponse(src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	return s.inner.GetResponse(src, fields)
}

func (s *hangUpSource) GetResponseContext(ctx context.Context, _ string, src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	if s.calls.Add(1) == 1 {
		close(s.entered)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return s.inner.GetResponse(src, fields)
}

// TestTwinAuditedPermitWhileOtherCancelled: two consumers make the same
// request and the first one's gateway fetch hangs until that consumer
// hangs up. Each request fetches on its own: the twin gets its detail
// and a "permit" record while the first is still in flight, and only
// the consumer that hung up gets a "cancelled" record.
func TestTwinAuditedPermitWhileOtherCancelled(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "bt-follow", "PERSON-F")
	w.doctorPolicy(t)
	src := &hangUpSource{inner: w.gw, entered: make(chan struct{})}
	if err := w.c.AttachGateway("hospital", src); err != nil {
		t.Fatal(err)
	}
	request := func(ctx context.Context, trace string) (*event.Detail, error) {
		r := w.request(gid)
		r.Trace = trace
		return w.c.RequestDetailsContext(ctx, r)
	}

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	hungErr := make(chan error, 1)
	go func() {
		_, err := request(ctx, "aaaaaaaaaaaaaaa1")
		hungErr <- err
	}()
	<-src.entered

	d, err := request(context.Background(), "aaaaaaaaaaaaaaa2")
	if err != nil {
		t.Fatalf("twin err = %v, want the detail (it never hung up)", err)
	}
	if v, _ := d.Get("hemoglobin"); v != "13.5" {
		t.Errorf("twin detail = %+v", d)
	}
	hangUp()
	if err := <-hungErr; !errors.Is(err, ErrCancelled) {
		t.Errorf("hung-up request err = %v, want ErrCancelled", err)
	}
	if n := src.calls.Load(); n != 2 {
		t.Errorf("gateway fetched %d times, want 2 (one per request)", n)
	}
	for trace, want := range map[string]string{"aaaaaaaaaaaaaaa1": "cancelled", "aaaaaaaaaaaaaaa2": "permit"} {
		recs, err := w.c.Audit().Search(audit.Query{Kind: audit.KindDetailRequest, Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Outcome != want {
			t.Errorf("audit records of trace %s = %+v, want one with outcome %q", trace, recs, want)
		}
	}
}
