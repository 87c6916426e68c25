package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/consent"
	"repro/internal/crypto"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/store"
)

const flushTimeout = 5 * time.Second

// world is a fully wired test platform: a controller, the hospital
// producer with its gateway, and the family-doctor consumer.
type world struct {
	c   *Controller
	gw  *gateway.Gateway
	now time.Time
}

// counter reads one controller counter from the telemetry registry the
// way an operator's scrape would see it.
func counter(c *Controller, name string, labelValues ...string) uint64 {
	var labels []string
	if name == "css_detail_decisions_total" {
		labels = []string{"outcome"}
	}
	return c.Metrics().Counter(name, "", labels...).Value(labelValues...)
}

func newWorld(t *testing.T) *world {
	t.Helper()
	return newWorldIn(t, "")
}

// newWorldIn is newWorld with the controller's stores on disk under
// dataDir ("" keeps them in memory).
func newWorldIn(t *testing.T, dataDir string) *world {
	t.Helper()
	w := &world{now: time.Date(2010, 6, 1, 9, 0, 0, 0, time.UTC)}
	c, err := New(Config{
		MasterKey:      bytes.Repeat([]byte{5}, crypto.KeySize),
		DataDir:        dataDir,
		DefaultConsent: true,
		Now:            func() time.Time { return w.now },
		SpanSampleRate: 1, // tests assert on recorded spans
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	w.c = c

	if err := c.RegisterProducer("hospital", "Hospital S. Maria"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterConsumer("family-doctor", "Family doctors"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New("hospital", store.OpenMemory(), c.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachGateway("hospital", gw); err != nil {
		t.Fatal(err)
	}
	w.gw = gw
	return w
}

// producePublish persists the detail at the gateway and publishes the
// notification, as a source system would.
func (w *world) producePublish(t *testing.T, src event.SourceID, person string) event.GlobalID {
	t.Helper()
	d := event.NewDetail(schema.ClassBloodTest, src, "hospital").
		Set("patient-id", person).
		Set("exam-date", "2010-05-30").
		Set("hemoglobin", "13.5").
		Set("aids-test", "negative").
		Set("lab-notes", "routine")
	if err := w.gw.Persist(d); err != nil {
		t.Fatal(err)
	}
	gid, err := w.c.Publish(&event.Notification{
		SourceID:   src,
		Class:      schema.ClassBloodTest,
		PersonID:   person,
		Summary:    "blood test completed",
		OccurredAt: w.now.Add(-time.Hour),
		Producer:   "hospital",
	})
	if err != nil {
		t.Fatal(err)
	}
	return gid
}

// doctorPolicy authorizes the family doctor on blood tests.
func (w *world) doctorPolicy(t *testing.T, fields ...event.FieldName) *policy.Policy {
	t.Helper()
	if len(fields) == 0 {
		fields = []event.FieldName{"patient-id", "exam-date", "hemoglobin"}
	}
	p, err := w.c.DefinePolicy(&policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   fields,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (w *world) request(gid event.GlobalID) *event.DetailRequest {
	return &event.DetailRequest{
		Requester: "family-doctor",
		Class:     schema.ClassBloodTest,
		EventID:   gid,
		Purpose:   event.PurposeHealthcareTreatment,
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{MasterKey: []byte("short")}); err == nil {
		t.Error("bad key accepted")
	}
	c, err := New(Config{})
	if err != nil {
		t.Fatalf("default config: %v", err)
	}
	c.Close()
}

// TestNewRejectsShardIDOutsideMap: the shard map is fixed at boot, so
// a shard id the map leaves out would own no keys forever; New refuses
// it and names the id.
func TestNewRejectsShardIDOutsideMap(t *testing.T) {
	m, err := cluster.NewMap(1, 0, []cluster.ShardInfo{{ID: 0, Addr: "http://a"}, {ID: 1, Addr: "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{5}, crypto.KeySize)
	if c, err := New(Config{MasterKey: key, ShardMap: m, ShardID: 2}); err == nil {
		c.Close()
		t.Fatal("shard id 2 outside a {0, 1} map accepted")
	} else if !strings.Contains(err.Error(), "shard id 2") {
		t.Errorf("error %q does not name the shard id", err)
	}
	c, err := New(Config{MasterKey: key, ShardMap: m, ShardID: 1})
	if err != nil {
		t.Fatalf("shard id 1 of a {0, 1} map: %v", err)
	}
	c.Close()
}

func TestPublishGuards(t *testing.T) {
	w := newWorld(t)
	n := &event.Notification{
		SourceID: "s", Class: schema.ClassBloodTest, PersonID: "P",
		OccurredAt: w.now, Producer: "hospital",
	}
	// Unknown producer.
	bad := *n
	bad.Producer = "ghost"
	if _, err := w.c.Publish(&bad); !errors.Is(err, ErrNotProducer) {
		t.Errorf("unknown producer = %v", err)
	}
	// Undeclared class.
	bad2 := *n
	bad2.Class = "never.declared"
	if _, err := w.c.Publish(&bad2); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("undeclared class = %v", err)
	}
	// Class owned by someone else.
	w.c.RegisterProducer("other", "Other")
	bad3 := *n
	bad3.Producer = "other"
	if _, err := w.c.Publish(&bad3); !errors.Is(err, ErrNotClassOwner) {
		t.Errorf("foreign class = %v", err)
	}
	// Invalid notification.
	bad4 := *n
	bad4.PersonID = ""
	if _, err := w.c.Publish(&bad4); err == nil {
		t.Error("invalid notification accepted")
	}
	// Valid one.
	gid, err := w.c.Publish(n)
	if err != nil || gid == "" {
		t.Fatalf("Publish = %q, %v", gid, err)
	}
	// Idempotent retry.
	gid2, err := w.c.Publish(n)
	if err != nil || gid2 != gid {
		t.Errorf("retry = %q, %v (want %q)", gid2, err, gid)
	}
}

func TestSubscribeDenyByDefaultThenPermit(t *testing.T) {
	w := newWorld(t)
	handler := func(*event.Notification) {}
	// No policy yet: rejected.
	if _, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, handler); !errors.Is(err, ErrSubscriptionDeny) {
		t.Fatalf("subscribe without policy = %v", err)
	}
	if counter(w.c, "css_subscription_denials_total") != 1 {
		t.Error("denial not counted")
	}
	w.doctorPolicy(t)
	sub, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, handler)
	if err != nil {
		t.Fatalf("subscribe with policy = %v", err)
	}
	if sub.Actor() != "family-doctor" || sub.Class() != schema.ClassBloodTest || sub.ID() == "" {
		t.Errorf("subscription = %+v", sub)
	}
}

func TestSubscribeGuards(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	h := func(*event.Notification) {}
	if _, err := w.c.Subscribe("never-registered", schema.ClassBloodTest, h); !errors.Is(err, ErrNotConsumer) {
		t.Errorf("unregistered consumer = %v", err)
	}
	if _, err := w.c.Subscribe("family-doctor", "never.declared", h); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("unknown class = %v", err)
	}
	if _, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, nil); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := w.c.Subscribe("bad//actor", schema.ClassBloodTest, h); err == nil {
		t.Error("invalid actor accepted")
	}
}

func TestEndToEndNotificationDelivery(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	var mu sync.Mutex
	var got []*event.Notification
	_, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(n *event.Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	gid := w.producePublish(t, "src-1", "PRS-1")
	if !w.c.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("delivered %d notifications", len(got))
	}
	n := got[0]
	if n.ID != gid || n.PersonID != "PRS-1" || n.Class != schema.ClassBloodTest {
		t.Errorf("notification = %+v", n)
	}
	if n.SourceID != "" {
		t.Error("source id leaked to consumer")
	}
	if got := counter(w.c, "css_deliveries_total"); got != 1 {
		t.Errorf("css_deliveries_total = %d", got)
	}
}

func TestDeliveryHonorsConsentOptOut(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	if _, err := w.c.RecordConsent(consent.Directive{PersonID: "PRS-OPTOUT", Allow: false}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(*event.Notification) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	w.producePublish(t, "src-1", "PRS-OPTOUT")
	w.producePublish(t, "src-2", "PRS-OK")
	if !w.c.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Errorf("delivered %d, want 1 (opt-out suppressed)", count)
	}
	if got := counter(w.c, "css_consent_drops_total"); got != 1 {
		t.Errorf("css_consent_drops_total = %d", got)
	}
}

func TestSubscriptionCancelAndRevocation(t *testing.T) {
	w := newWorld(t)
	p := w.doctorPolicy(t)
	var mu sync.Mutex
	count := 0
	sub, _ := w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(*event.Notification) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	w.producePublish(t, "src-1", "P1")
	w.c.Flush(flushTimeout)

	// Revoking the policy stops deliveries on the live subscription.
	if err := w.c.RevokePolicy(p.ID); err != nil {
		t.Fatal(err)
	}
	w.producePublish(t, "src-2", "P2")
	w.c.Flush(flushTimeout)
	mu.Lock()
	if count != 1 {
		t.Errorf("delivered %d after revocation, want 1", count)
	}
	mu.Unlock()

	if err := sub.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	w.producePublish(t, "src-3", "P3")
	w.c.Flush(flushTimeout)
	mu.Lock()
	if count != 1 {
		t.Errorf("delivered %d after cancel", count)
	}
	mu.Unlock()
}

func TestRequestDetailsTwoPhase(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t, "patient-id", "hemoglobin")
	gid := w.producePublish(t, "src-1", "PRS-1")

	d, err := w.c.RequestDetails(w.request(gid))
	if err != nil {
		t.Fatalf("RequestDetails: %v", err)
	}
	if v, _ := d.Get("hemoglobin"); v != "13.5" {
		t.Errorf("hemoglobin = %q", v)
	}
	for _, hidden := range []event.FieldName{"aids-test", "lab-notes", "exam-date"} {
		if _, ok := d.Get(hidden); ok {
			t.Errorf("unauthorized field %s released", hidden)
		}
	}
	if got := counter(w.c, "css_detail_decisions_total", "permit"); got != 1 {
		t.Errorf("permits = %d", got)
	}
}

func TestRequestDetailsDenials(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "src-1", "PRS-1")

	// Deny-by-default (no policy).
	if _, err := w.c.RequestDetails(w.request(gid)); !errors.Is(err, enforcer.ErrDenied) {
		t.Errorf("no policy = %v", err)
	}
	w.doctorPolicy(t)
	// Unknown requester.
	r := w.request(gid)
	r.Requester = "never-registered"
	if _, err := w.c.RequestDetails(r); !errors.Is(err, ErrNotConsumer) {
		t.Errorf("unknown requester = %v", err)
	}
	// Unknown event.
	r2 := w.request("evt-ghost")
	if _, err := w.c.RequestDetails(r2); !errors.Is(err, enforcer.ErrUnknownEvent) {
		t.Errorf("unknown event = %v", err)
	}
	// Consent opt-out for this purpose.
	w.c.RecordConsent(consent.Directive{PersonID: "PRS-1", Allow: false,
		Scope: consent.Scope{Purpose: event.PurposeHealthcareTreatment}})
	if _, err := w.c.RequestDetails(w.request(gid)); !errors.Is(err, ErrConsentDeny) {
		t.Errorf("consent opt-out = %v", err)
	}
	denies, permits := counter(w.c, "css_detail_decisions_total", "deny"), counter(w.c, "css_detail_decisions_total", "permit")
	if denies != 3 || permits != 0 {
		t.Errorf("denies = %d, permits = %d", denies, permits)
	}
}

func TestRequestDetailsValidityWindowWithSimulatedClock(t *testing.T) {
	w := newWorld(t)
	p, err := w.c.DefinePolicy(&policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id"},
		NotAfter: w.now.AddDate(0, 6, 0), // contract ends in 6 months
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	gid := w.producePublish(t, "src-1", "PRS-1")

	if _, err := w.c.RequestDetails(w.request(gid)); err != nil {
		t.Fatalf("in-contract request: %v", err)
	}
	// Months later (temporal decoupling): the contract has expired.
	w.now = w.now.AddDate(1, 0, 0)
	if _, err := w.c.RequestDetails(w.request(gid)); !errors.Is(err, enforcer.ErrDenied) {
		t.Errorf("post-contract request = %v", err)
	}
}

func TestDefinePolicyGuards(t *testing.T) {
	w := newWorld(t)
	base := policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id"},
	}
	// Unknown class.
	bad := base
	bad.Class = "never.declared"
	if _, err := w.c.DefinePolicy(&bad); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("unknown class = %v", err)
	}
	// Not the class owner.
	w.c.RegisterProducer("other", "Other")
	bad2 := base
	bad2.Producer = "other"
	if _, err := w.c.DefinePolicy(&bad2); !errors.Is(err, ErrNotClassOwner) {
		t.Errorf("foreign producer = %v", err)
	}
	// Field outside the schema (F ⊆ e_j violated).
	bad3 := base
	bad3.Fields = []event.FieldName{"no-such-field"}
	if _, err := w.c.DefinePolicy(&bad3); err == nil {
		t.Error("out-of-schema field accepted")
	}
	if got, err := w.c.DefinePolicy(&base); err != nil || got.ID == "" {
		t.Errorf("valid policy = %+v, %v", got, err)
	}
	if len(w.c.Policies("hospital")) != 1 {
		t.Error("Policies listing wrong")
	}
}

func TestInquireIndex(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	gidA := w.producePublish(t, "src-1", "PRS-A")
	w.producePublish(t, "src-2", "PRS-B")
	w.producePublish(t, "src-3", "PRS-A")

	// Person-scoped inquiry.
	got, err := w.c.InquireIndex("family-doctor", index.Inquiry{PersonID: "PRS-A"})
	if err != nil {
		t.Fatalf("InquireIndex: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("inquiry = %d results", len(got))
	}
	if got[0].ID != gidA && got[1].ID != gidA {
		t.Error("expected event missing")
	}
	for _, n := range got {
		if n.SourceID != "" {
			t.Error("source id leaked in inquiry result")
		}
	}
	// Class-scoped inquiry without authorization is rejected outright.
	w.c.RegisterConsumer("insurance-co", "Insurance")
	if _, err := w.c.InquireIndex("insurance-co", index.Inquiry{Class: schema.ClassBloodTest}); !errors.Is(err, ErrSubscriptionDeny) {
		t.Errorf("unauthorized class inquiry = %v", err)
	}
	// Open inquiry by an unauthorized consumer yields nothing.
	res, err := w.c.InquireIndex("insurance-co", index.Inquiry{})
	if err != nil || len(res) != 0 {
		t.Errorf("unauthorized open inquiry = %d, %v", len(res), err)
	}
	// Consent opt-out filters inquiry results.
	w.c.RecordConsent(consent.Directive{PersonID: "PRS-A", Allow: false})
	res2, _ := w.c.InquireIndex("family-doctor", index.Inquiry{})
	if len(res2) != 1 {
		t.Errorf("inquiry after opt-out = %d, want 1", len(res2))
	}
	// Limit applies after authorization filtering.
	res3, _ := w.c.InquireIndex("family-doctor", index.Inquiry{Limit: 1})
	if len(res3) != 1 {
		t.Errorf("limited inquiry = %d", len(res3))
	}
	// Unknown consumer.
	if _, err := w.c.InquireIndex("ghost", index.Inquiry{}); !errors.Is(err, ErrNotConsumer) {
		t.Errorf("unknown consumer = %v", err)
	}
}

func TestAuditTrailCoversAllFlows(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	gid := w.producePublish(t, "src-1", "PRS-1")
	w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(*event.Notification) {})
	w.c.RequestDetails(w.request(gid))
	r := w.request(gid)
	r.Purpose = event.PurposeStatisticalAnalysis // will be denied
	w.c.RequestDetails(r)
	w.c.InquireIndex("family-doctor", index.Inquiry{PersonID: "PRS-1"})

	log := w.c.Audit()
	if err := log.Verify(); err != nil {
		t.Fatalf("audit Verify: %v", err)
	}
	count := func(q audit.Query) int {
		recs, err := log.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	if n := count(audit.Query{Kind: audit.KindPublish}); n != 1 {
		t.Errorf("publish records = %d", n)
	}
	if n := count(audit.Query{Kind: audit.KindSubscribe, Outcome: "permit"}); n != 1 {
		t.Errorf("subscribe permits = %d", n)
	}
	if n := count(audit.Query{Kind: audit.KindDetailRequest, Outcome: "permit"}); n != 1 {
		t.Errorf("detail permits = %d", n)
	}
	if n := count(audit.Query{Kind: audit.KindDetailRequest, Outcome: "deny"}); n != 1 {
		t.Errorf("detail denials = %d", n)
	}
	if n := count(audit.Query{Kind: audit.KindIndexInquiry}); n != 1 {
		t.Errorf("inquiries = %d", n)
	}
	// The denied record must name the purpose for the guarantor.
	denied, _ := log.Search(audit.Query{Kind: audit.KindDetailRequest, Outcome: "deny"})
	if denied[0].Purpose != event.PurposeStatisticalAnalysis {
		t.Errorf("denied record purpose = %q", denied[0].Purpose)
	}
}

func TestClosedController(t *testing.T) {
	w := newWorld(t)
	w.c.Close()
	if err := w.c.RegisterProducer("x", "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("RegisterProducer after close = %v", err)
	}
	if _, err := w.c.Publish(&event.Notification{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close = %v", err)
	}
	if _, err := w.c.Subscribe("a", "c.x", func(*event.Notification) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after close = %v", err)
	}
	if _, err := w.c.RequestDetails(&event.DetailRequest{}); !errors.Is(err, ErrClosed) {
		t.Errorf("RequestDetails after close = %v", err)
	}
	if _, err := w.c.InquireIndex("a", index.Inquiry{}); !errors.Is(err, ErrClosed) {
		t.Errorf("InquireIndex after close = %v", err)
	}
	if err := w.c.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
}
