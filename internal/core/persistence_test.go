package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/consent"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/store"
)

// TestControllerPersistenceAcrossRestart exercises the deployment story:
// the controller restarts (e.g. maintenance) and a consumer still
// retrieves details of an event published before the restart, months
// later — the temporal decoupling of §4.
func TestControllerPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	gwStore := dir + "/gw.wal"
	key := bytes.Repeat([]byte{8}, crypto.KeySize)
	now := time.Date(2010, 2, 1, 10, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }

	boot := func() (*Controller, *gateway.Gateway) {
		c, err := New(Config{MasterKey: key, DataDir: dir, DefaultConsent: true, Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterProducer("hospital", "Hospital"); err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterConsumer("family-doctor", "Doctors"); err != nil {
			t.Fatal(err)
		}
		if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(gwStore, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gw, err := gateway.New("hospital", st, c.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AttachGateway("hospital", gw); err != nil {
			t.Fatal(err)
		}
		return c, gw
	}

	// First life: publish an event.
	c1, gw1 := boot()
	d := event.NewDetail(schema.ClassBloodTest, "src-1", "hospital").
		Set("patient-id", "PRS-1").
		Set("exam-date", "2010-01-31").
		Set("hemoglobin", "12.1")
	if err := gw1.Persist(d); err != nil {
		t.Fatal(err)
	}
	gid, err := c1.Publish(&event.Notification{
		SourceID: "src-1", Class: schema.ClassBloodTest, PersonID: "PRS-1",
		Summary: "blood test", OccurredAt: now.Add(-time.Hour), Producer: "hospital",
	})
	if err != nil {
		t.Fatal(err)
	}
	audLen := c1.Audit().Len()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life, four months later: the old event is still resolvable.
	// (This test defines the policy only in the second life; see
	// TestCatalogAndPoliciesSurviveRestart for reload of stored policies.)
	now = now.AddDate(0, 4, 0)
	c2, _ := boot()
	defer c2.Close()
	if _, err := c2.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	}); err != nil {
		t.Fatal(err)
	}

	// The events index survived (encrypted person id intact).
	res, err := c2.InquireIndex("family-doctor", index.Inquiry{PersonID: "PRS-1"})
	if err != nil {
		t.Fatalf("InquireIndex after restart: %v", err)
	}
	if len(res) != 1 || res[0].ID != gid {
		t.Fatalf("inquiry after restart = %+v", res)
	}

	// The detail request months later succeeds end to end.
	got, err := c2.RequestDetails(&event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	if err != nil {
		t.Fatalf("RequestDetails after restart: %v", err)
	}
	if v, _ := got.Get("hemoglobin"); v != "12.1" {
		t.Errorf("hemoglobin = %q", v)
	}
	if _, ok := got.Get("exam-date"); ok {
		t.Error("unauthorized field released after restart")
	}

	// The audit chain continued across the restart and verifies.
	if c2.Audit().Len() <= audLen {
		t.Errorf("audit chain did not grow: %d <= %d", c2.Audit().Len(), audLen)
	}
	if err := c2.Audit().Verify(); err != nil {
		t.Errorf("audit Verify after restart: %v", err)
	}

	// Publishing the same source event again still maps to the same id.
	gid2, err := c2.Publish(&event.Notification{
		SourceID: "src-1", Class: schema.ClassBloodTest, PersonID: "PRS-1",
		Summary: "blood test", OccurredAt: now.Add(-time.Hour), Producer: "hospital",
	})
	if err != nil || gid2 != gid {
		t.Errorf("re-publish after restart = %q, %v (want %q)", gid2, err, gid)
	}
}

// TestCatalogAndPoliciesSurviveRestart asserts the full-state reload: a
// restarted controller knows its members, classes and policies without
// any re-provisioning.
func TestCatalogAndPoliciesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	key := bytes.Repeat([]byte{9}, crypto.KeySize)

	c1, err := New(Config{MasterKey: key, DataDir: dir, DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := c1.RegisterConsumer("family-doctor", "Doctors"); err != nil {
		t.Fatal(err)
	}
	if err := c1.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	stored, err := c1.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	})
	if err != nil {
		t.Fatal(err)
	}
	revoked, err := c1.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "someone-else", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{"x"}, Fields: []event.FieldName{"patient-id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.RevokePolicy(revoked.ID); err != nil {
		t.Fatal(err)
	}
	gw1, err := gateway.New("hospital", store.OpenMemory(), c1.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.AttachGateway("hospital", gw1); err != nil {
		t.Fatal(err)
	}
	gid, err := c1.Publish(&event.Notification{
		SourceID: "s-1", Class: schema.ClassBloodTest, PersonID: "PRS-1",
		OccurredAt: time.Date(2010, 4, 1, 0, 0, 0, 0, time.UTC), Producer: "hospital",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: NOTHING is re-provisioned except the gateway wiring.
	c2, err := New(Config{MasterKey: key, DataDir: dir, DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Catalog().HasProducer("hospital") || !c2.Catalog().HasConsumer("family-doctor") {
		t.Fatal("membership lost across restart")
	}
	s, err := c2.Catalog().Schema(schema.ClassBloodTest)
	if err != nil || !s.Has("aids-test") {
		t.Fatalf("class declaration lost: %v", err)
	}
	pols := c2.Policies("hospital")
	if len(pols) != 1 || pols[0].ID != stored.ID {
		t.Fatalf("policies after restart = %+v (revoked policy must stay gone)", pols)
	}
	// The reloaded policy enforces: reattach a gateway holding the detail.
	gw2, err := gateway.New("hospital", store.OpenMemory(), c2.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	d := event.NewDetail(schema.ClassBloodTest, "s-1", "hospital").
		Set("patient-id", "PRS-1").Set("exam-date", "2010-04-01").Set("hemoglobin", "11.9")
	if err := gw2.Persist(d); err != nil {
		t.Fatal(err)
	}
	if err := c2.AttachGateway("hospital", gw2); err != nil {
		t.Fatal(err)
	}
	got, err := c2.RequestDetails(&event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	if err != nil {
		t.Fatalf("details via reloaded policy: %v", err)
	}
	if v, _ := got.Get("hemoglobin"); v != "11.9" {
		t.Errorf("hemoglobin = %q", v)
	}
	// New policies after reload get fresh, non-colliding ids.
	another, err := c2.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "third-party", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{"y"}, Fields: []event.FieldName{"patient-id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if another.ID == stored.ID {
		t.Error("policy id collision after reload")
	}
	// Idempotent re-provisioning still works.
	if err := c2.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Errorf("idempotent re-register = %v", err)
	}
	if err := c2.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Errorf("idempotent re-declare = %v", err)
	}
	// But a foreign takeover still fails.
	if err := c2.RegisterProducer("other", "O"); err != nil {
		t.Fatal(err)
	}
	if err := c2.DeclareClass("other", schema.BloodTest()); err == nil {
		t.Error("class takeover accepted after reload")
	}
}

// TestPublishReturnsBeforeFsync pins the durability contract README's
// "Crash safety" states: no daemon opens its stores with
// store.Options.SyncEvery, so a publish returns with its writes in the
// page cache and not yet fsynced, on every store the controller
// replicates. A change to SyncEvery breaks this test and must edit that
// README sentence with it.
func TestPublishReturnsBeforeFsync(t *testing.T) {
	w := newWorldIn(t, t.TempDir())
	w.doctorPolicy(t)
	// Every replicated store holds a record before the publish, so the
	// check below reads something on each: the consent store is
	// written only by a directive.
	if _, err := w.c.RecordConsent(consent.Directive{PersonID: "PRS-OTHER", Allow: false}); err != nil {
		t.Fatal(err)
	}
	w.producePublish(t, "src-durability", "PRS-1")
	stores, err := w.c.ReplStores()
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range stores {
		if synced, end := ns.Store.WALSynced(), ns.Store.WALOffset(); synced >= end {
			t.Errorf("store %s: WAL fsynced through %d of %d bytes after a publish; README's crash-safety sentence says no daemon fsyncs", ns.Name, synced, end)
		}
	}
}
