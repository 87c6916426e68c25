package transport

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/identity"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/store"
)

// authRig is a rig whose controller server requires bearer tokens.
type authRig struct {
	*rig
	authority *identity.Authority
}

func newAuthRig(t *testing.T) *authRig {
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
	if err := ctrl.AttachGateway("hospital", gw); err != nil {
		t.Fatal(err)
	}
	authority, err := identity.NewAuthority(bytes.Repeat([]byte{9}, identity.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, NewServer(ctrl).RequireAuth(authority))
	t.Cleanup(srv.Close)
	return &authRig{
		rig: &rig{
			ctrl: ctrl, gw: gw, ctrlServer: srv,
			client: NewClient(srv.URL, nil),
		},
		authority: authority,
	}
}

func (r *authRig) token(t *testing.T, actor event.Actor) string {
	t.Helper()
	tok, _, err := r.authority.Issue(actor, nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func (r *authRig) seed(t *testing.T) event.GlobalID {
	t.Helper()
	d := event.NewDetail(schema.ClassBloodTest, "src-1", "hospital").
		Set("patient-id", "PRS-1").
		Set("exam-date", "2010-06-01").
		Set("hemoglobin", "12.0")
	if err := r.gw.Persist(d); err != nil {
		t.Fatal(err)
	}
	hospital := r.client.WithToken(r.token(t, "hospital"))
	if _, err := hospital.DefinePolicy(context.Background(), &policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	}); err != nil {
		t.Fatal(err)
	}
	gid, err := hospital.Publish(context.Background(), &event.Notification{
		SourceID: "src-1", Class: schema.ClassBloodTest, PersonID: "PRS-1",
		OccurredAt: time.Date(2010, 6, 1, 9, 0, 0, 0, time.UTC), Producer: "hospital",
	})
	if err != nil {
		t.Fatal(err)
	}
	return gid
}

func TestAuthRejectsAnonymous(t *testing.T) {
	r := newAuthRig(t)
	// Every endpoint refuses a token-less client.
	if _, err := r.client.Catalog(context.Background()); err == nil {
		t.Error("anonymous catalog accepted")
	}
	if _, err := r.client.Publish(context.Background(), &event.Notification{
		SourceID: "s", Class: schema.ClassBloodTest, PersonID: "P",
		OccurredAt: time.Now(), Producer: "hospital",
	}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("anonymous publish = %v", err)
	}
	if _, err := r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: "evt-x", Purpose: "care",
	}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("anonymous details = %v", err)
	}
	if _, err := r.client.InquireIndex(context.Background(), "family-doctor", index.Inquiry{}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("anonymous inquire = %v", err)
	}
	if _, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, "http://127.0.0.1:1/cb"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("anonymous subscribe = %v", err)
	}
	if _, err := r.client.RecordConsent(context.Background(), consent.Directive{PersonID: "P", Allow: false}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("anonymous consent = %v", err)
	}
	if _, err := r.client.WithToken("junk.token").Catalog(context.Background()); err == nil {
		t.Error("garbage token accepted")
	}
}

func TestAuthHappyPath(t *testing.T) {
	r := newAuthRig(t)
	gid := r.seed(t)
	doctor := r.client.WithToken(r.token(t, "family-doctor"))
	d, err := doctor.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	if err != nil {
		t.Fatalf("authorized details: %v", err)
	}
	if v, _ := d.Get("hemoglobin"); v != "12.0" {
		t.Errorf("hemoglobin = %q", v)
	}
	if _, err := doctor.Catalog(context.Background()); err != nil {
		t.Errorf("authorized catalog: %v", err)
	}
	if _, err := doctor.InquireIndex(context.Background(), "family-doctor", index.Inquiry{PersonID: "PRS-1"}); err != nil {
		t.Errorf("authorized inquire: %v", err)
	}
}

func TestAuthRejectsImpersonation(t *testing.T) {
	r := newAuthRig(t)
	gid := r.seed(t)
	// A token for another org cannot act as the doctor.
	intruder := r.client.WithToken(r.token(t, "insurance-co"))
	if _, err := intruder.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("impersonated details = %v", err)
	}
	// A consumer token cannot publish as the hospital.
	doctor := r.client.WithToken(r.token(t, "family-doctor"))
	if _, err := doctor.Publish(context.Background(), &event.Notification{
		SourceID: "s2", Class: schema.ClassBloodTest, PersonID: "P",
		OccurredAt: time.Now(), Producer: "hospital",
	}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("impersonated publish = %v", err)
	}
	// Nor define policies for the hospital's classes.
	if _, err := doctor.DefinePolicy(context.Background(), &policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{"care"}, Fields: []event.FieldName{"patient-id"},
	}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("impersonated policy = %v", err)
	}
}

func TestAuthOrgTokenCoversDepartment(t *testing.T) {
	r := newAuthRig(t)
	r.seed(t)
	orgToken := r.client.WithToken(r.token(t, "family-doctor"))
	// Department-level inquiry under an org token.
	if _, err := orgToken.InquireIndex(context.Background(), "family-doctor/north-district", index.Inquiry{}); err != nil {
		t.Errorf("org token over department = %v", err)
	}
	// But a department token cannot act as the organization.
	deptToken := r.client.WithToken(r.token(t, "family-doctor/north-district"))
	if _, err := deptToken.InquireIndex(context.Background(), "family-doctor", index.Inquiry{}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("department token over org = %v", err)
	}
}

func TestAuthPendingRequests(t *testing.T) {
	r := newAuthRig(t)
	// Anonymous polling is refused.
	if _, err := r.client.PendingRequests(context.Background(), "hospital"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("anonymous pending = %v", err)
	}
	// A consumer token cannot read the hospital's queue.
	doctor := r.client.WithToken(r.token(t, "family-doctor"))
	if _, err := doctor.PendingRequests(context.Background(), "hospital"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("impersonated pending = %v", err)
	}
	// The hospital's own token works.
	hospital := r.client.WithToken(r.token(t, "hospital"))
	if _, err := hospital.PendingRequests(context.Background(), "hospital"); err != nil {
		t.Errorf("own pending = %v", err)
	}
}

func TestGatewayAuth(t *testing.T) {
	authority, err := identity.NewAuthority(bytes.Repeat([]byte{9}, identity.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, testGatewayServer(gw).RequireAuth(authority, "data-controller"))
	defer srv.Close()

	mint := func(actor event.Actor) string {
		tok, _, err := authority.Issue(actor, nil, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	d := event.NewDetail("c.x", "src-1", "hospital").Set("patient-id", "PRS-1").Set("secret", "s")

	// Persist requires the producer's token.
	anon := NewRemoteGateway(srv.URL, nil)
	if err := anon.Persist(context.Background(), d); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("anonymous persist = %v", err)
	}
	wrong := anon.WithToken(mint("someone-else"))
	if err := wrong.Persist(context.Background(), d); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("foreign persist = %v", err)
	}
	producer := anon.WithToken(mint("hospital"))
	if err := producer.Persist(context.Background(), d); err != nil {
		t.Fatalf("producer persist = %v", err)
	}

	// GetResponse requires the controller's token — a consumer (or even
	// the producer) cannot pull details around the policy enforcer.
	if _, err := anon.GetResponse("src-1", []event.FieldName{"patient-id"}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("anonymous get-response = %v", err)
	}
	if _, err := producer.GetResponse("src-1", []event.FieldName{"patient-id"}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("producer get-response = %v", err)
	}
	controller := anon.WithToken(mint("data-controller"))
	got, err := controller.GetResponse("src-1", []event.FieldName{"patient-id"})
	if err != nil {
		t.Fatalf("controller get-response = %v", err)
	}
	if !got.ExposesOnly([]event.FieldName{"patient-id"}) {
		t.Error("response not privacy safe")
	}
}

func TestAuditEndpointRequiresGuarantorRole(t *testing.T) {
	r := newAuthRig(t)
	r.seed(t)
	get := func(token string) int {
		req, _ := http.NewRequest(http.MethodGet, r.ctrlServer.URL+"/ws/audit", nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(""); got != http.StatusUnauthorized {
		t.Errorf("anonymous audit = %d", got)
	}
	plain, _, _ := r.authority.Issue("family-doctor", nil, time.Hour)
	if got := get(plain); got != http.StatusUnauthorized {
		t.Errorf("role-less audit = %d", got)
	}
	guarantor, _, _ := r.authority.Issue("privacy-authority", []string{GuarantorRole}, time.Hour)
	if got := get(guarantor); got != http.StatusOK {
		t.Errorf("guarantor audit = %d", got)
	}
}

// nopPublisher stands in for the controller behind a publish relay.
type nopPublisher struct{}

func (nopPublisher) Publish(context.Context, *event.Notification) (event.GlobalID, error) {
	return "evt-1", nil
}

// Every POST route of both servers verifies the bearer before it reads
// or decodes anything: with authentication on, a caller without a valid
// token gets 401 whatever it sent — it cannot make the server parse
// megabytes of XML first — and without authentication the same malformed
// body is the plain 400 it always was.
func TestAuthenticateBeforeDecode(t *testing.T) {
	authority, err := identity.NewAuthority(bytes.Repeat([]byte{9}, identity.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	build := func(auth bool) map[string]http.Handler {
		ctrl, err := core.New(core.Config{DefaultConsent: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ctrl.Close() })
		gw, err := gateway.New("hospital", store.OpenMemory(), nil)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := NewQueuedPublisher(nopPublisher{}, store.OpenMemory(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(qp.Close)
		cs, gs := NewServer(ctrl), testGatewayServer(gw)
		gs.EnablePublishRelay(qp)
		if auth {
			cs.RequireAuth(authority)
			gs.RequireAuth(authority, "data-controller")
		}
		return map[string]http.Handler{"/ws": cs, "/gw": gs}
	}
	routes := []string{
		"/ws/publish", "/ws/subscribe", "/ws/details", "/ws/inquire",
		"/ws/policy", "/ws/consent", "/ws/promote",
		"/gw/get-response", "/gw/persist", "/gw/publish",
	}
	post := func(h http.Handler, path, bearer string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("<unterminated"))
		if bearer != "" {
			req.Header.Set("Authorization", bearer)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	code := func(rec *httptest.ResponseRecorder) string {
		var f Fault
		xml.Unmarshal(rec.Body.Bytes(), &f)
		return f.Code
	}

	open, guarded := build(false), build(true)
	for _, path := range routes {
		t.Run(path, func(t *testing.T) {
			if rec := post(open[path[:3]], path, ""); rec.Code != http.StatusBadRequest || code(rec) != CodeBadRequest {
				t.Errorf("auth off, malformed body = %d %s, want 400 bad-request", rec.Code, rec.Body)
			}
			for _, bearer := range []string{"", "Bearer garbage", "Basic dXNlcg=="} {
				if rec := post(guarded[path[:3]], path, bearer); rec.Code != http.StatusUnauthorized || code(rec) != CodeUnauthorized {
					t.Errorf("auth on, Authorization %q, malformed body = %d %s, want 401 unauthorized", bearer, rec.Code, rec.Body)
				}
			}
		})
	}
}

// The gateway checks token expiry against the scaffold's clock, like
// the controller does against its own.
func TestGatewayTokenExpiryUsesServiceClock(t *testing.T) {
	authority, err := identity.NewAuthority(bytes.Repeat([]byte{9}, identity.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gs := testGatewayServer(gw).RequireAuth(authority, "data-controller")
	tok, _, err := authority.Issue("hospital", nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	persist := func() int {
		body, _ := event.EncodeDetail(event.NewDetail("c.x", "src-1", "hospital").Set("k", "v"))
		req := httptest.NewRequest(http.MethodPost, "/gw/persist", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+tok)
		rec := httptest.NewRecorder()
		gs.ServeHTTP(rec, req)
		return rec.Code
	}
	if got := persist(); got != http.StatusNoContent {
		t.Fatalf("fresh token = %d, want 204", got)
	}
	gs.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if got := persist(); got != http.StatusUnauthorized {
		t.Fatalf("token past its expiry on the service clock = %d, want 401", got)
	}
}
