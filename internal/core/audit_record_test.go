package core

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/schema"
)

// TestAuditRecordsTakeControllerClock: every record the controller
// appends — publish, subscribe permit and deny, detail request, index
// inquiry permit and deny, own inquiry — is stamped with Config.Now, not
// the wall clock.
func TestAuditRecordsTakeControllerClock(t *testing.T) {
	w := newWorld(t)
	if err := w.c.RegisterConsumer("nurse", "Nurses"); err != nil {
		t.Fatal(err)
	}
	w.doctorPolicy(t)
	sub, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(*event.Notification) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if _, err := w.c.Subscribe("nurse", schema.ClassBloodTest, func(*event.Notification) {}); err == nil {
		t.Fatal("subscription without a policy admitted")
	}
	gid := w.producePublish(t, "src-1", "PRS-1")
	if _, err := w.c.RequestDetails(w.request(gid)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.c.InquireIndex("family-doctor", index.Inquiry{PersonID: "PRS-1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.c.InquireIndex("nurse", index.Inquiry{Class: schema.ClassBloodTest}); err == nil {
		t.Fatal("inquiry without a policy answered")
	}
	if _, err := w.c.InquireOwn("PRS-1", index.Inquiry{}); err != nil {
		t.Fatal(err)
	}

	recs, err := w.c.Audit().Search(audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range recs {
		seen[string(r.Kind)+" "+r.Outcome]++
		if !r.At.Equal(w.now) {
			t.Errorf("%s %s by %s stamped %v, want the controller's %v", r.Kind, r.Outcome, r.Actor, r.At, w.now)
		}
	}
	want := map[string]int{"publish ok": 1, "subscribe permit": 1, "subscribe deny": 1,
		"detail-request permit": 1, "index-inquiry permit": 2, "index-inquiry deny": 1}
	for k, n := range want {
		if seen[k] != n {
			t.Errorf("%d %q records, want %d (all: %v)", seen[k], k, n, seen)
		}
	}
}

// TestRefusalsBeforeDecisionAreNotAudited pins the early returns of the
// access flows: a request that fails validation, comes from an actor
// that is no registered consumer, or reaches a closed controller is
// refused before any decision is rendered, and appends no audit record.
// (A replica's refusals, inquiries included: TestReplicaRefusesEveryFlow.)
func TestRefusalsBeforeDecisionAreNotAudited(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	gid := w.producePublish(t, "src-1", "PRS-1")
	before := w.c.Audit().Len()
	unaudited := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted", what)
		}
		if n := w.c.Audit().Len(); n != before {
			t.Errorf("%s: audit chain grew from %d to %d records", what, before, n)
		}
	}
	noPurpose := w.request(gid)
	noPurpose.Purpose = ""
	_, err := w.c.RequestDetails(noPurpose)
	unaudited("detail request without purpose", err)
	ghost := w.request(gid)
	ghost.Requester = "ghost"
	_, err = w.c.RequestDetails(ghost)
	unaudited("detail request by a non-consumer", err)
	_, err = w.c.Subscribe("family-doctor//x", schema.ClassBloodTest, func(*event.Notification) {})
	unaudited("subscription by an invalid actor", err)
	_, err = w.c.Subscribe("ghost", schema.ClassBloodTest, func(*event.Notification) {})
	unaudited("subscription by a non-consumer", err)
	_, err = w.c.InquireIndex("ghost", index.Inquiry{})
	unaudited("inquiry by a non-consumer", err)

	w.c.Close()
	_, err = w.c.RequestDetails(w.request(gid))
	unaudited("detail request to a closed controller", err)
	_, err = w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(*event.Notification) {})
	unaudited("subscription to a closed controller", err)
	_, err = w.c.InquireIndex("family-doctor", index.Inquiry{})
	unaudited("inquiry to a closed controller", err)
	_, err = w.c.InquireOwn("PRS-1", index.Inquiry{})
	unaudited("own inquiry to a closed controller", err)
}
