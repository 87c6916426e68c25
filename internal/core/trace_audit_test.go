package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/index"
)

// unavailableSource simulates a producer gateway that never answers.
type unavailableSource struct{}

func (unavailableSource) GetResponse(event.SourceID, []event.FieldName) (*event.Detail, error) {
	return nil, fmt.Errorf("%w: gateway down", enforcer.ErrSourceUnavailable)
}

// TestCancelledAuditRecordCarriesTrace: even a request abandoned before
// any decision ran must leave an audit record joined to the flow's
// trace, and the trace's root span must record the outcome — the
// guarantor reconstructs abandoned flows too.
func TestCancelledAuditRecordCarriesTrace(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "bt-trace-cancel", "PERSON-TC")
	w.doctorPolicy(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.c.RequestDetailsContext(ctx, w.request(gid)); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}

	recs, err := w.c.Audit().Search(audit.Query{Kind: audit.KindDetailRequest, Outcome: "cancelled"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("cancelled audit records = %d, want 1", len(recs))
	}
	trace := recs[0].Trace
	if trace == "" {
		t.Fatal("cancelled audit record has no trace id")
	}

	spans := w.c.Spans().ByTrace(trace)
	if len(spans) == 0 {
		t.Fatalf("no spans recorded for cancelled trace %s", trace)
	}
	found := false
	for _, s := range spans {
		if s.Stage != "detail.request" {
			continue
		}
		found = true
		if s.Error == "" {
			t.Fatal("cancelled detail.request span not marked failed")
		}
		outcome := ""
		for _, a := range s.Attrs {
			if a.Key == "outcome" {
				outcome = a.Value
			}
		}
		if outcome != "cancelled" {
			t.Fatalf("detail.request span outcome = %q, want cancelled", outcome)
		}
	}
	if !found {
		t.Fatalf("no detail.request span in trace %s: %+v", trace, spans)
	}
}

// TestUnavailableAuditRecordCarriesTrace: when the producer's gateway is
// unreachable the audit outcome is "unavailable" (not "deny"), and the
// record carries the flow's trace so css-audit -trace -spans can show
// where the flow died.
func TestUnavailableAuditRecordCarriesTrace(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "bt-trace-unavail", "PERSON-TU")
	w.doctorPolicy(t)
	if err := w.c.AttachGateway("hospital", unavailableSource{}); err != nil {
		t.Fatal(err)
	}

	_, err := w.c.RequestDetailsContext(context.Background(), w.request(gid))
	if err == nil {
		t.Fatal("request against a dead gateway succeeded")
	}
	if !errors.Is(err, enforcer.ErrSourceUnavailable) {
		t.Fatalf("err = %v, want ErrSourceUnavailable", err)
	}

	recs, aerr := w.c.Audit().Search(audit.Query{Kind: audit.KindDetailRequest, Outcome: "unavailable"})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if len(recs) != 1 {
		t.Fatalf("unavailable audit records = %d, want 1", len(recs))
	}
	trace := recs[0].Trace
	if trace == "" {
		t.Fatal("unavailable audit record has no trace id")
	}
	spans := w.c.Spans().ByTrace(trace)
	var stages []string
	for _, s := range spans {
		stages = append(stages, s.Stage)
	}
	for _, want := range []string{"detail.request", "consent.check", "pdp.decide", "gateway.fetch"} {
		ok := false
		for _, got := range stages {
			if got == want {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("trace %s missing stage %s (has %v)", trace, want, stages)
		}
	}
	for _, s := range spans {
		if s.Stage == "gateway.fetch" && s.Error == "" {
			t.Fatal("gateway.fetch span against a dead source not marked failed")
		}
	}
}

// TestUnreadableEventAuditedAsSuch: a detail request whose event record
// exists but cannot be read is denied (fail closed), but its audit
// record says so — "unknown event id" is for ids the index does not
// hold, and the caller is not told the event is unknown.
func TestUnreadableEventAuditedAsSuch(t *testing.T) {
	w := newWorldIn(t, t.TempDir())
	w.doctorPolicy(t)
	gid := w.producePublish(t, "bt-unreadable", "PERSON-UR")
	for _, ns := range w.c.replStores {
		if ns.Name == "index" {
			if err := ns.Store.Put("e/"+string(gid), []byte(`{"id":"damaged`)); err != nil {
				t.Fatal(err)
			}
		}
	}
	missing := event.GlobalID("evt-never-published")
	for _, tc := range []struct {
		gid     event.GlobalID
		note    string
		unknown bool
	}{
		{gid, "event record unreadable", false},
		{missing, "unknown event id", true},
	} {
		_, err := w.c.RequestDetails(w.request(tc.gid))
		if err == nil {
			t.Fatalf("request for %s succeeded", tc.gid)
		}
		if got := errors.Is(err, enforcer.ErrUnknownEvent); got != tc.unknown {
			t.Errorf("request for %s: err = %v, unknown event = %v, want %v", tc.gid, err, got, tc.unknown)
		}
		if !tc.unknown && errors.Is(err, index.ErrNotFound) {
			t.Errorf("request for %s: an unreadable record reported as not found: %v", tc.gid, err)
		}
		recs, err := w.c.Audit().Search(audit.Query{Kind: audit.KindDetailRequest, EventID: tc.gid})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Outcome != "deny" || recs[0].Note != tc.note {
			t.Fatalf("audit records for %s = %+v, want one deny noted %q", tc.gid, recs, tc.note)
		}
	}
}
