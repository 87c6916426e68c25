package transport

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/overload"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/xacml"
)

// rig is a full distributed deployment over httptest: a controller
// server, a hospital gateway server (attached remotely), and a client.
type rig struct {
	ctrl       *core.Controller
	gw         *gateway.Gateway
	ctrlServer *testServer
	gwServer   *testServer
	client     *Client
}

// testGatewayServer is the one place the tests construct a gateway
// server, so a constructor change touches no test table.
func testGatewayServer(gw *gateway.Gateway) *GatewayServer {
	return NewGatewayServer(gw, telemetry.NewRegistry())
}

func newRig(t *testing.T) *rig {
	t.Helper()
	ctrl, err := core.New(core.Config{
		MasterKey:      bytes.Repeat([]byte{4}, crypto.KeySize),
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

	gw, err := gateway.New("hospital", store.OpenMemory(), ctrl.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	gwServer := newTestServer(t, testGatewayServer(gw))
	t.Cleanup(gwServer.Close)
	if err := ctrl.AttachGateway("hospital", NewRemoteGateway(gwServer.URL, nil)); err != nil {
		t.Fatal(err)
	}

	ctrlServer := newTestServer(t, NewServer(ctrl))
	t.Cleanup(ctrlServer.Close)

	return &rig{
		ctrl:       ctrl,
		gw:         gw,
		ctrlServer: ctrlServer,
		gwServer:   gwServer,
		client:     NewClient(ctrlServer.URL, nil),
	}
}

func (r *rig) produce(t *testing.T, src event.SourceID, person string) event.GlobalID {
	t.Helper()
	d := event.NewDetail(schema.ClassBloodTest, src, "hospital").
		Set("patient-id", person).
		Set("exam-date", "2010-05-30").
		Set("hemoglobin", "14.2").
		Set("aids-test", "negative")
	if err := r.gw.Persist(d); err != nil {
		t.Fatal(err)
	}
	gid, err := r.client.Publish(context.Background(), &event.Notification{
		SourceID: src, Class: schema.ClassBloodTest, PersonID: person,
		Summary: "blood test", OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
		Producer: "hospital",
	})
	if err != nil {
		t.Fatal(err)
	}
	return gid
}

func (r *rig) doctorPolicy(t *testing.T) *policy.Policy {
	t.Helper()
	p, err := r.client.DefinePolicy(context.Background(), &policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRemotePublishAndDetails(t *testing.T) {
	r := newRig(t)
	p := r.doctorPolicy(t)
	if p.ID == "" {
		t.Fatal("remote DefinePolicy returned no id")
	}
	gid := r.produce(t, "src-1", "PRS-1")
	d, err := r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	if err != nil {
		t.Fatalf("RequestDetails: %v", err)
	}
	if v, _ := d.Get("hemoglobin"); v != "14.2" {
		t.Errorf("hemoglobin = %q", v)
	}
	if _, leaked := d.Get("aids-test"); leaked {
		t.Error("aids-test leaked over the wire")
	}
}

func TestRemoteErrorsKeepIdentity(t *testing.T) {
	r := newRig(t)
	gid := r.produce(t, "src-1", "PRS-1")
	// Deny-by-default crosses the wire as enforcer.ErrDenied.
	_, err := r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	if !errors.Is(err, enforcer.ErrDenied) {
		t.Errorf("deny = %v, want enforcer.ErrDenied", err)
	}
	// Unknown event.
	r.doctorPolicy(t)
	_, err = r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: "evt-ghost", Purpose: event.PurposeHealthcareTreatment,
	})
	if !errors.Is(err, enforcer.ErrUnknownEvent) {
		t.Errorf("unknown event = %v", err)
	}
	// Unknown consumer.
	_, err = r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "ghost", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	if !errors.Is(err, core.ErrNotConsumer) {
		t.Errorf("unknown consumer = %v", err)
	}
	// Publish guards.
	_, err = r.client.Publish(context.Background(), &event.Notification{
		SourceID: "s", Class: "never.declared", PersonID: "P",
		OccurredAt: time.Now(), Producer: "hospital",
	})
	if !errors.Is(err, core.ErrUnknownClass) {
		t.Errorf("unknown class = %v", err)
	}
	// Policy guard: field outside schema (400-level fault without sentinel).
	_, err = r.client.DefinePolicy(context.Background(), &policy.Policy{
		Producer: "hospital", Actor: "a", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{"s"}, Fields: []event.FieldName{"no-such-field"},
	})
	if err == nil {
		t.Error("out-of-schema policy accepted remotely")
	}
}

func TestRemoteSubscribeWithCallback(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)

	var mu sync.Mutex
	var got []*event.Notification
	receiver := httptest.NewServer(NewNotificationReceiver(func(n *event.Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	}))
	defer receiver.Close()

	subID, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, receiver.URL)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if subID == "" {
		t.Fatal("empty subscription id")
	}
	gid := r.produce(t, "src-1", "PRS-1")

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("received %d notifications", len(got))
	}
	if got[0].ID != gid || got[0].PersonID != "PRS-1" {
		t.Errorf("notification = %+v", got[0])
	}
	if got[0].SourceID != "" {
		t.Error("source id leaked through callback")
	}
}

func TestRemoteSubscribeDenied(t *testing.T) {
	r := newRig(t)
	_, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, "http://127.0.0.1:1/cb")
	if !errors.Is(err, core.ErrSubscriptionDeny) {
		t.Errorf("subscribe without policy = %v", err)
	}
	// Missing callback is a bad request.
	if _, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, ""); err == nil {
		t.Error("missing callback accepted")
	}
}

// A callback no delivery can reach is refused before the subscription
// is made: no subscription id, no audit record.
func TestRemoteSubscribeRefusesUndeliverableCallback(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	for _, cb := range []string{"", "://no-scheme/cb", "ftp://example.org/cb", "not a url", "http:///nohost", "/relative/cb"} {
		id, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, cb)
		var f *Fault
		if !errors.As(err, &f) || f.Code != CodeBadRequest {
			t.Errorf("callback %q: id %q, err %v, want a %s fault", cb, id, err, CodeBadRequest)
		}
	}
	recs, err := r.ctrl.Audit().Search(audit.Query{Kind: audit.KindSubscribe})
	if err != nil || len(recs) != 0 {
		t.Fatalf("%d subscribe records audited (%v), want none", len(recs), err)
	}
	for _, cb := range []string{"http://127.0.0.1:1/cb", "https://consumer.example/cb"} {
		if _, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, cb); err != nil {
			t.Errorf("callback %q: %v", cb, err)
		}
	}
}

// A trace that could not travel verbatim in an X-Trace-Id header is
// refused with bad-request on publish and on a detail request, in both
// codecs, before anything is recorded.
func TestBadTraceIsBadRequest(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	gid := r.produce(t, "src-ok", "PRS-1")
	before, err := r.ctrl.Audit().Search(audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []string{"abc\r\nX-Evil: 1", strings.Repeat("t", 65), "has space"} {
		n := &event.Notification{SourceID: "src-bad", Class: schema.ClassBloodTest, PersonID: "PRS-2",
			Summary: "blood test", OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC), Producer: "hospital", Trace: trace}
		d := &event.DetailRequest{Requester: "family-doctor", Class: schema.ClassBloodTest, EventID: gid,
			Purpose: event.PurposeHealthcareTreatment, Trace: trace}
		for _, codec := range []event.Codec{event.XML, event.Binary} {
			nb, err := codec.EncodeNotification(n)
			if err != nil {
				t.Fatal(err)
			}
			db, err := codec.EncodeDetailRequest(d)
			if err != nil {
				t.Fatal(err)
			}
			for path, body := range map[string][]byte{"/ws/publish": nb, "/ws/details": db} {
				resp, err := http.Post(r.ctrlServer.URL+path, codec.ContentType(), bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				f, err := decodeEnvelope(data, readFault)
				if resp.StatusCode != http.StatusBadRequest || err != nil || f.Code != CodeBadRequest {
					t.Errorf("%s %s trace %q: status %d, body %q", codec.Name(), path, trace, resp.StatusCode, data)
				}
			}
		}
	}
	after, err := r.ctrl.Audit().Search(audit.Query{})
	if err != nil || len(after) != len(before) {
		t.Fatalf("%d audit records after refusals, %d before (%v)", len(after), len(before), err)
	}
	// The gateway's publish relay refuses it before parking it.
	qp, err := NewQueuedPublisher(nopPublisher{}, store.OpenMemory(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()
	gs := testGatewayServer(r.gw)
	gs.EnablePublishRelay(qp)
	body, err := event.XML.EncodeNotification(&event.Notification{SourceID: "src-relay", Class: schema.ClassBloodTest,
		PersonID: "PRS-2", Summary: "blood test", OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
		Producer: "hospital", Trace: "abc\r\nX-Evil: 1"})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	gs.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/gw/publish", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || qp.Depth() != 0 {
		t.Errorf("relay: status %d, %d parked, want 400 and none", rec.Code, qp.Depth())
	}
	// Traces in use stay valid.
	for i, trace := range []string{"t1", "replay", "feedbeefcafe0001", "00000000000000004bf92f3577b34da6"} {
		n := &event.Notification{SourceID: event.SourceID("src-" + trace), Class: schema.ClassBloodTest, PersonID: "PRS-3",
			Summary: "blood test", OccurredAt: time.Date(2010, 5, 30, 9, i, 0, 0, time.UTC), Producer: "hospital", Trace: trace}
		if _, err := r.client.Publish(context.Background(), n); err != nil {
			t.Errorf("trace %q: %v", trace, err)
		}
	}
}

func TestRemoteInquiry(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	r.produce(t, "src-1", "PRS-A")
	r.produce(t, "src-2", "PRS-B")
	r.produce(t, "src-3", "PRS-A")

	got, err := r.client.InquireIndex(context.Background(), "family-doctor", index.Inquiry{PersonID: "PRS-A"})
	if err != nil {
		t.Fatalf("InquireIndex: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("inquiry = %d results", len(got))
	}
	// Time-window over the wire.
	got2, err := r.client.InquireIndex(context.Background(), "family-doctor", index.Inquiry{
		From:  time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),
		To:    time.Date(2010, 12, 31, 0, 0, 0, 0, time.UTC),
		Limit: 2,
	})
	if err != nil || len(got2) != 2 {
		t.Errorf("windowed inquiry = %d, %v", len(got2), err)
	}
}

func TestRemoteConsent(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	gid := r.produce(t, "src-1", "PRS-1")
	stored, err := r.client.RecordConsent(context.Background(), consent.Directive{
		PersonID: "PRS-1", Allow: false,
		Scope: consent.Scope{Purpose: event.PurposeHealthcareTreatment},
	})
	if err != nil {
		t.Fatalf("RecordConsent: %v", err)
	}
	if stored.Seq == 0 {
		t.Error("stored directive has no seq")
	}
	_, err = r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	if !errors.Is(err, core.ErrConsentDeny) {
		t.Errorf("consent deny over the wire = %v", err)
	}
}

func TestCatalogEndpoint(t *testing.T) {
	r := newRig(t)
	resp, err := http.Get(r.ctrlServer.URL + "/ws/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog status = %d", resp.StatusCode)
	}
	for _, want := range []string{"<catalog>", "hospital.blood-test", "aids-test"} {
		if !strings.Contains(body, want) {
			t.Errorf("catalog missing %q", want)
		}
	}
}

func TestBadRequestHandling(t *testing.T) {
	r := newRig(t)
	for _, path := range []string{"/ws/publish", "/ws/subscribe", "/ws/details", "/ws/inquire", "/ws/consent", "/ws/policy"} {
		resp, err := http.Post(r.ctrlServer.URL+path, "application/xml", strings.NewReader("not xml"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
	}
	// Wrong method.
	resp, err := http.Get(r.ctrlServer.URL + "/ws/publish")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /ws/publish succeeded")
	}
}

func TestRemoteGatewayDirect(t *testing.T) {
	r := newRig(t)
	d := event.NewDetail(schema.ClassBloodTest, "src-9", "hospital").
		Set("patient-id", "PRS-9").
		Set("exam-date", "2010-06-01").
		Set("hemoglobin", "11.0").
		Set("aids-test", "positive")
	if err := r.gw.Persist(d); err != nil {
		t.Fatal(err)
	}
	remote := NewRemoteGateway(r.gwServer.URL, nil)
	got, err := remote.GetResponse("src-9", []event.FieldName{"patient-id"})
	if err != nil {
		t.Fatalf("GetResponse: %v", err)
	}
	if !got.ExposesOnly([]event.FieldName{"patient-id"}) {
		t.Error("remote gateway response not privacy safe")
	}
	if _, err := remote.GetResponse("src-ghost", []event.FieldName{"patient-id"}); !errors.Is(err, gateway.ErrNotFound) {
		t.Errorf("remote miss = %v", err)
	}
}

func TestNotificationReceiverRejectsGarbage(t *testing.T) {
	rc := httptest.NewServer(NewNotificationReceiver(func(*event.Notification) {
		t.Error("handler invoked for garbage")
	}))
	defer rc.Close()
	resp, err := http.Post(rc.URL, "application/xml", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
	// Wrong method.
	resp2, err := http.Get(rc.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp2.StatusCode)
	}
}

func TestClientCatalog(t *testing.T) {
	r := newRig(t)
	schemas, err := r.client.Catalog(context.Background())
	if err != nil {
		t.Fatalf("Catalog: %v", err)
	}
	if len(schemas) != 1 || schemas[0].Class() != schema.ClassBloodTest {
		t.Fatalf("Catalog = %v", schemas)
	}
	if !schemas[0].Has("aids-test") {
		t.Error("fetched schema lost fields")
	}
	for _, f := range schemas[0].Fields() {
		if f.Name == "hemoglobin" && f.Type != schema.Float {
			t.Error("fetched schema lost field types")
		}
	}
}

func TestRemoteGatewayPersist(t *testing.T) {
	r := newRig(t)
	remote := NewRemoteGateway(r.gwServer.URL, nil)
	d := event.NewDetail(schema.ClassBloodTest, "src-remote", "hospital").
		Set("patient-id", "PRS-77").
		Set("exam-date", "2010-06-02").
		Set("hemoglobin", "15.0")
	if err := remote.Persist(context.Background(), d); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	got, err := remote.GetResponse("src-remote", []event.FieldName{"patient-id"})
	if err != nil {
		t.Fatalf("GetResponse after remote persist: %v", err)
	}
	if v, _ := got.Get("patient-id"); v != "PRS-77" {
		t.Errorf("patient-id = %q", v)
	}
	// Schema validation still applies remotely.
	bad := event.NewDetail(schema.ClassBloodTest, "src-bad", "hospital").
		Set("hemoglobin", "not-a-number")
	if err := remote.Persist(context.Background(), bad); err == nil {
		t.Error("remote persist accepted schema-invalid detail")
	}
}

func TestPendingRequestsOverTheWire(t *testing.T) {
	r := newRig(t)
	gid := r.produce(t, "src-1", "PRS-1")
	// Denied for lack of policy: queued for the hospital.
	r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	pending, err := r.client.PendingRequests(context.Background(), "hospital")
	if err != nil {
		t.Fatalf("PendingRequests: %v", err)
	}
	if len(pending) != 1 {
		t.Fatalf("pending = %d", len(pending))
	}
	p := pending[0]
	if p.Actor != "family-doctor" || p.Class != schema.ClassBloodTest ||
		p.Purpose != event.PurposeHealthcareTreatment || p.Count != 1 {
		t.Errorf("pending entry = %+v", p)
	}
	if p.FirstAt.IsZero() || p.LastAt.Before(p.FirstAt) {
		t.Errorf("timestamps = %v..%v", p.FirstAt, p.LastAt)
	}
	// Defining the policy remotely resolves it.
	r.doctorPolicy(t)
	pending, err = r.client.PendingRequests(context.Background(), "hospital")
	if err != nil || len(pending) != 0 {
		t.Errorf("pending after policy = %d, %v", len(pending), err)
	}
	// Missing producer parameter is a bad request.
	resp, err := http.Get(r.ctrlServer.URL + "/ws/pending")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing producer = %d", resp.StatusCode)
	}
}

func TestAuditEndpointUnauthenticated(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	gid := r.produce(t, "src-1", "PRS-1")
	r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	resp, err := http.Get(r.ctrlServer.URL + "/ws/audit?kind=detail-request&outcome=permit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, buf.String())
	}
	body := buf.String()
	for _, want := range []string{"<auditRecords>", "family-doctor", "permit", "healthcare-treatment"} {
		if !strings.Contains(body, want) {
			t.Errorf("audit response missing %q:\n%s", want, body)
		}
	}
	// Bad limit.
	resp2, _ := http.Get(r.ctrlServer.URL + "/ws/audit?limit=banana")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d", resp2.StatusCode)
	}
}

func TestPoliciesListingAndExport(t *testing.T) {
	r := newRig(t)
	stored := r.doctorPolicy(t)
	got, err := r.client.Policies(context.Background(), "hospital")
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if len(got) != 1 || got[0].ID != stored.ID || len(got[0].Fields) != len(stored.Fields) {
		t.Fatalf("Policies = %+v", got)
	}
	// The fetched corpus compiles to an exportable PolicySet.
	ps, err := xacml.CompileProducerSet("hospital", got)
	if err != nil {
		t.Fatalf("CompileProducerSet: %v", err)
	}
	data, err := xacml.EncodeSet(ps)
	if err != nil {
		t.Fatalf("EncodeSet: %v", err)
	}
	var set struct {
		Policies []struct {
			ID string `xml:"PolicyId,attr"`
		} `xml:"Policy"`
	}
	if err := xml.Unmarshal(data, &set); err != nil || len(set.Policies) != 1 || set.Policies[0].ID != string(stored.ID) {
		t.Fatalf("exported set = %+v, %v; want the one stored policy", set, err)
	}
	// Missing producer param.
	resp, _ := http.Get(r.ctrlServer.URL + "/ws/policies")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing producer = %d", resp.StatusCode)
	}
	// Unknown producer: empty list, not an error.
	empty, err := r.client.Policies(context.Background(), "ghost")
	if err != nil || len(empty) != 0 {
		t.Errorf("unknown producer = %d, %v", len(empty), err)
	}
}

// A message that decodes but lacks a field the protocol requires is the
// sender's fault: 400 bad-request, which a client with a retrier does
// not send again.
func TestInvalidMessageIsBadRequest(t *testing.T) {
	r := newRig(t)
	var attempts atomic.Int64
	api := NewServer(r.ctrl)
	srv := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		attempts.Add(1)
		api.ServeHTTP(w, req)
	}))
	defer srv.Close()
	for _, tc := range []struct{ path, body string }{
		{"/ws/publish", `<notification sourceId="lab-1"><class>hospital.blood-test</class>` +
			`<summary>blood test</summary><occurredAt>2026-08-05T10:00:00Z</occurredAt><producer>hospital</producer></notification>`},
		{"/ws/details", `<detailRequest><requester>family-doctor</requester><class>hospital.blood-test</class>` +
			`<purpose>healthcare-treatment</purpose></detailRequest>`},
	} {
		resp, err := http.Post(srv.URL+tc.path, event.ContentTypeXML, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `code="bad-request"`) {
			t.Errorf("%s: %d %s, want 400 bad-request", tc.path, resp.StatusCode, body)
		}
	}

	client := NewClient(srv.URL, nil, WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})))
	at := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	for name, call := range map[string]func() error{
		"publish without a person": func() error {
			_, err := client.Publish(context.Background(), &event.Notification{SourceID: "lab-2", Class: schema.ClassBloodTest,
				Summary: "blood test", Producer: "hospital", OccurredAt: at})
			return err
		},
		"details without an event": func() error {
			_, err := client.RequestDetails(context.Background(), &event.DetailRequest{Requester: "family-doctor",
				Class: schema.ClassBloodTest, Purpose: event.PurposeHealthcareTreatment})
			return err
		},
	} {
		attempts.Store(0)
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if n := attempts.Load(); n != 1 {
			t.Errorf("%s: %d attempts, want 1", name, n)
		}
	}
}

// A control character in a query value is refused before a connection
// is taken, retrier or not: written out, a CR/LF would end the request
// line and let the rest pass for a second request on the pooled
// connection, which would carry the caller's Authorization too.
func TestQueryControlCharacterSendsNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 8)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	client := NewClient("http://"+ln.Addr().String(), nil, WithTimeout(50*time.Millisecond),
		WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))).WithToken("secret")
	ctx := context.Background()
	for _, v := range []string{"a\r\nX: y", "a HTTP/1.1\r\nHost: h\r\n\r\nPOST /ws/promote?x=", "a\x00"} {
		for name, call := range map[string]func() error{
			"Policies":           func() error { _, err := client.Policies(ctx, event.ProducerID(v)); return err },
			"PendingRequests":    func() error { _, err := client.PendingRequests(ctx, event.ProducerID(v)); return err },
			"SubscriptionActive": func() error { _, err := client.SubscriptionActive(ctx, v); return err },
		} {
			if err := call(); err == nil || !strings.Contains(err.Error(), "invalid control character") {
				t.Errorf("%s(%q): %v, want the URL refused", name, v, err)
			}
		}
	}
	select {
	case c := <-accepted:
		c.Close()
		t.Fatal("a connection was opened")
	case <-time.After(50 * time.Millisecond):
	}
}

// A served call runs under the one context the service derives for it:
// the caller's trace and the admitted endpoint's deadline, ended when
// the route returns.
func TestServiceDerivesOneContext(t *testing.T) {
	r := newRig(t)
	srv := NewServer(r.ctrl).SetAdmission(overload.NewGate(overload.Config{ActorRPS: -1}))
	ctxs := make(chan context.Context, 1)
	srv.mux.HandleFunc("GET /ws/context", func(w http.ResponseWriter, req *http.Request) { ctxs <- req.Context() })
	s := newTestServer(t, srv)
	defer s.Close()
	req, _ := http.NewRequest(http.MethodGet, s.URL+"/ws/context", nil)
	req.Header.Set(telemetry.TraceHeader, "feedbeefcafe0001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx := <-ctxs
	if got := telemetry.TraceFrom(ctx); got != "feedbeefcafe0001" {
		t.Errorf("route saw trace %q", got)
	}
	if d, ok := ctx.Deadline(); !ok || time.Until(d) > routeClassFor("/ws/context").deadline {
		t.Errorf("route's deadline %v (set %v), want the endpoint's", d, ok)
	}
	select {
	case <-ctx.Done():
	default:
		t.Error("the route's context outlived it")
	}
}
