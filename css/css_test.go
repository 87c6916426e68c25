package css_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/css"
	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/schema"
)

// scenario wires the Fig. 8 world: a hospital producing blood tests and
// a family doctor.
type scenario struct {
	platform *css.Platform
	hospital *css.Producer
	doctor   *css.Consumer
}

func newScenario(t *testing.T) *scenario {
	t.Helper()
	p, err := css.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	hospital, err := p.RegisterProducer("hospital", "Hospital S. Maria")
	if err != nil {
		t.Fatal(err)
	}
	if err := hospital.DeclareClass(schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	doctor, err := p.RegisterConsumer("family-doctor", "Family doctors")
	if err != nil {
		t.Fatal(err)
	}
	return &scenario{platform: p, hospital: hospital, doctor: doctor}
}

func (s *scenario) emit(t *testing.T, src css.SourceID, person string) css.EventID {
	t.Helper()
	n := &css.Notification{
		SourceID:   src,
		Class:      schema.ClassBloodTest,
		PersonID:   person,
		Summary:    "blood test completed",
		OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
		Producer:   "hospital",
	}
	d := css.NewDetail(schema.ClassBloodTest, src, "hospital").
		Set("patient-id", person).
		Set("exam-date", "2010-05-30").
		Set("hemoglobin", "13.9").
		Set("aids-test", "negative").
		Set("lab-notes", "fasting sample")
	id, err := s.hospital.Emit(n, d)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func (s *scenario) doctorPolicy(t *testing.T) []*css.Policy {
	t.Helper()
	policies, err := s.hospital.Policy(schema.BloodTest()).
		SelectAllFieldsExcept("aids-test", "lab-notes").
		SelectConsumers("family-doctor").
		SelectPurposes(css.PurposeHealthcareTreatment).
		Label("doctor on blood tests", "AIDS test obfuscated").
		Apply()
	if err != nil {
		t.Fatal(err)
	}
	return policies
}

func TestPublicAPITwoPhaseFlow(t *testing.T) {
	s := newScenario(t)
	s.doctorPolicy(t)

	var mu sync.Mutex
	var notified []*css.Notification
	if _, err := s.doctor.Subscribe(schema.ClassBloodTest, func(n *css.Notification) {
		mu.Lock()
		notified = append(notified, n)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	id := s.emit(t, "src-1", "PRS-1")
	if !s.platform.Flush(5 * time.Second) {
		t.Fatal("Flush timed out")
	}
	mu.Lock()
	if len(notified) != 1 || notified[0].ID != id {
		t.Fatalf("notifications = %+v", notified)
	}
	mu.Unlock()

	d, err := s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment)
	if err != nil {
		t.Fatalf("RequestDetails: %v", err)
	}
	if v, _ := d.Get("hemoglobin"); v != "13.9" {
		t.Errorf("hemoglobin = %q", v)
	}
	if _, leaked := d.Get("aids-test"); leaked {
		t.Error("aids-test leaked")
	}
}

func TestPublicAPIDenyByDefault(t *testing.T) {
	s := newScenario(t)
	id := s.emit(t, "src-1", "PRS-1")
	if _, err := s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment); !errors.Is(err, css.ErrDenied) {
		t.Errorf("no policy = %v, want css.ErrDenied", err)
	}
	if _, err := s.doctor.Subscribe(schema.ClassBloodTest, func(*css.Notification) {}); !errors.Is(err, css.ErrSubscriptionDenied) {
		t.Errorf("subscribe = %v, want css.ErrSubscriptionDenied", err)
	}
}

func TestPublicAPIConsent(t *testing.T) {
	s := newScenario(t)
	s.doctorPolicy(t)
	id := s.emit(t, "src-1", "PRS-1")
	if err := s.platform.OptOut("PRS-1", css.ConsentScope{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment); !errors.Is(err, css.ErrConsentDenied) {
		t.Errorf("opt-out = %v, want css.ErrConsentDenied", err)
	}
	// Opt back in, narrowly.
	if err := s.platform.OptIn("PRS-1", css.ConsentScope{Consumer: "family-doctor"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment); err != nil {
		t.Errorf("after scoped opt-in = %v", err)
	}
}

func TestPublicAPIDepartmentsAndValidity(t *testing.T) {
	s := newScenario(t)
	// Grant the whole welfare org; a department inherits.
	if _, err := s.platform.RegisterConsumer("social-welfare", "Welfare"); err != nil {
		t.Fatal(err)
	}
	until := time.Date(2010, 12, 31, 0, 0, 0, 0, time.UTC)
	if _, err := s.hospital.Policy(schema.BloodTest()).
		SelectFields("patient-id", "exam-date").
		SelectConsumers("social-welfare").
		SelectPurposes(css.PurposeAdministration).
		ValidUntil(until).
		Apply(); err != nil {
		t.Fatal(err)
	}
	id := s.emit(t, "src-1", "PRS-1")
	dept, err := s.platform.Department("social-welfare/home-care")
	if err != nil {
		t.Fatal(err)
	}
	in := time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)
	if _, err := dept.RequestDetailsAt(id, schema.ClassBloodTest, css.PurposeAdministration, in); err != nil {
		t.Errorf("department in-window = %v", err)
	}
	out := until.AddDate(0, 1, 0)
	if _, err := dept.RequestDetailsAt(id, schema.ClassBloodTest, css.PurposeAdministration, out); !errors.Is(err, css.ErrDenied) {
		t.Errorf("department out-of-window = %v", err)
	}
}

func TestPublicAPIEmitValidation(t *testing.T) {
	s := newScenario(t)
	if _, err := s.hospital.Emit(nil, nil); err == nil {
		t.Error("nil emit accepted")
	}
	n := &css.Notification{SourceID: "a", Class: schema.ClassBloodTest, PersonID: "P",
		OccurredAt: time.Now(), Producer: "hospital"}
	d := css.NewDetail(schema.ClassBloodTest, "b", "hospital") // mismatched source
	if _, err := s.hospital.Emit(n, d); err == nil {
		t.Error("mismatched emit accepted")
	}
}

func TestPublicAPIPolicyApplyAtomicity(t *testing.T) {
	s := newScenario(t)
	// Second consumer actor is invalid at Build time? No — use a valid
	// builder but a field the schema lacks, failing before any store.
	_, err := s.hospital.Policy(schema.BloodTest()).
		SelectFields("no-such-field").
		SelectConsumers("family-doctor").
		SelectPurposes(css.PurposeHealthcareTreatment).
		Apply()
	if err == nil {
		t.Fatal("bad policy accepted")
	}
	if got := s.hospital.Policies(); len(got) != 0 {
		t.Errorf("failed Apply left %d policies", len(got))
	}
}

func TestPublicAPIInquireAndAudit(t *testing.T) {
	s := newScenario(t)
	s.doctorPolicy(t)
	s.emit(t, "src-1", "PRS-A")
	s.emit(t, "src-2", "PRS-B")

	res, err := s.doctor.Inquire(css.Inquiry{PersonID: "PRS-A"})
	if err != nil || len(res) != 1 {
		t.Fatalf("Inquire = %d, %v", len(res), err)
	}
	if _, err := s.doctor.RequestDetails(res[0].ID, schema.ClassBloodTest, css.PurposeHealthcareTreatment); err != nil {
		t.Fatal(err)
	}
	recs, err := s.platform.AuditSearch(css.AuditQuery{Kind: audit.KindDetailRequest})
	if err != nil || len(recs) != 1 {
		t.Fatalf("AuditSearch = %d, %v", len(recs), err)
	}
	if recs[0].Outcome != "permit" || recs[0].Actor != "family-doctor" {
		t.Errorf("audit record = %+v", recs[0])
	}
	if err := s.platform.AuditVerify(); err != nil {
		t.Errorf("AuditVerify = %v", err)
	}
}

func TestPublicAPIGatewayStatsAndRevocation(t *testing.T) {
	s := newScenario(t)
	pols := s.doctorPolicy(t)
	id := s.emit(t, "src-1", "PRS-1")
	if _, err := s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment); err != nil {
		t.Fatal(err)
	}
	st := s.hospital.GatewayStats()
	if st.Served != 1 || st.BytesWithheld == 0 {
		t.Errorf("gateway stats = %+v", st)
	}
	for _, p := range pols {
		if err := s.platform.RevokePolicy(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment); !errors.Is(err, css.ErrDenied) {
		t.Errorf("after revocation = %v", err)
	}
}

func TestPublicAPIPersistentPlatform(t *testing.T) {
	dir := t.TempDir()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	open := func() (*css.Platform, *css.Producer, *css.Consumer) {
		p, err := css.NewPlatform(css.WithDataDir(dir), css.WithMasterKey(key))
		if err != nil {
			t.Fatal(err)
		}
		hospital, err := p.RegisterProducer("hospital", "Hospital")
		if err != nil {
			t.Fatal(err)
		}
		if err := hospital.DeclareClass(schema.BloodTest()); err != nil {
			t.Fatal(err)
		}
		doctor, err := p.RegisterConsumer("family-doctor", "Doctors")
		if err != nil {
			t.Fatal(err)
		}
		return p, hospital, doctor
	}

	p1, hospital1, _ := open()
	n := &css.Notification{SourceID: "src-1", Class: schema.ClassBloodTest, PersonID: "PRS-1",
		OccurredAt: time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC), Producer: "hospital"}
	d := css.NewDetail(schema.ClassBloodTest, "src-1", "hospital").
		Set("patient-id", "PRS-1").Set("exam-date", "2010-03-01").Set("hemoglobin", "12.5")
	id, err := hospital1.Emit(n, d)
	if err != nil {
		t.Fatal(err)
	}
	p1.Close()

	p2, hospital2, doctor2 := open()
	defer p2.Close()
	if _, err := hospital2.Policy(schema.BloodTest()).
		SelectFields("patient-id", "hemoglobin").
		SelectConsumers("family-doctor").
		SelectPurposes(css.PurposeHealthcareTreatment).
		Apply(); err != nil {
		t.Fatal(err)
	}
	got, err := doctor2.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment)
	if err != nil {
		t.Fatalf("details after restart: %v", err)
	}
	if v, _ := got.Get("hemoglobin"); v != "12.5" {
		t.Errorf("hemoglobin = %q", v)
	}
}

func TestPublicAPIPendingRequests(t *testing.T) {
	s := newScenario(t)
	id := s.emit(t, "src-1", "PRS-1")
	// The doctor asks before any policy exists: denied and queued for the
	// hospital's privacy expert.
	s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment)
	pending := s.hospital.PendingRequests()
	if len(pending) != 1 {
		t.Fatalf("pending = %d", len(pending))
	}
	if pending[0].Actor != "family-doctor" || pending[0].Purpose != css.PurposeHealthcareTreatment {
		t.Errorf("pending entry = %+v", pending[0])
	}
	// Eliciting the policy resolves the pending request and unblocks the
	// consumer.
	s.doctorPolicy(t)
	if got := s.hospital.PendingRequests(); len(got) != 0 {
		t.Errorf("pending after elicitation = %+v", got)
	}
	if _, err := s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment); err != nil {
		t.Errorf("request after elicitation: %v", err)
	}
}

func TestPublicAPIAccessorsAndOptions(t *testing.T) {
	fixed := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	p, err := css.NewPlatform(
		css.WithDefaultConsent(true),
		css.WithClock(func() time.Time { return fixed }),
		css.WithBusOptions(bus.Options{MaxPending: 64}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Controller() == nil {
		t.Fatal("Controller() = nil")
	}
	if got := p.Controller().Now(); !got.Equal(fixed) {
		t.Errorf("injected clock ignored: %v", got)
	}
	hospital, err := p.RegisterProducer("hospital", "H")
	if err != nil {
		t.Fatal(err)
	}
	if hospital.ID() != "hospital" {
		t.Errorf("Producer.ID = %q", hospital.ID())
	}
	doctor, err := p.RegisterConsumer("family-doctor", "D")
	if err != nil {
		t.Fatal(err)
	}
	if doctor.Actor() != "family-doctor" {
		t.Errorf("Consumer.Actor = %q", doctor.Actor())
	}
	if _, err := p.Department("bad//actor"); err == nil {
		t.Error("Department accepted bad actor")
	}
	// Schema constructors.
	if _, err := css.NewSchema("c.x", 1, "d"); err == nil {
		t.Error("NewSchema accepted empty field list")
	}
	s := css.MustSchema("c.x", 1, "d", css.Field{Name: "f", Type: css.Int})
	if !s.Has("f") {
		t.Error("MustSchema lost field")
	}
	// ValidFrom on the policy builder.
	if err := hospital.DeclareClass(s); err != nil {
		t.Fatal(err)
	}
	pols, err := hospital.Policy(s).
		SelectFields("f").
		SelectConsumers("family-doctor").
		SelectPurposes("p").
		ValidFrom(fixed.AddDate(1, 0, 0)).
		Apply()
	if err != nil {
		t.Fatal(err)
	}
	if !pols[0].NotBefore.Equal(fixed.AddDate(1, 0, 0)) {
		t.Errorf("ValidFrom = %v", pols[0].NotBefore)
	}
	// Not yet valid: subscription denied at the fixed clock.
	if _, err := doctor.Subscribe("c.x", func(*css.Notification) {}); !errors.Is(err, css.ErrSubscriptionDenied) {
		t.Errorf("pre-validity subscribe = %v", err)
	}
	// ErrUnknownEvent surfaces through the facade.
	if _, err := doctor.RequestDetailsAt("evt-ghost", "c.x", "p", fixed.AddDate(2, 0, 0)); !errors.Is(err, css.ErrUnknownEvent) {
		t.Errorf("unknown event = %v", err)
	}
	// RecordConsent through the platform handle.
	if _, err := p.RecordConsent(css.ConsentDirective{PersonID: "P", Allow: true}); err != nil {
		t.Errorf("RecordConsent = %v", err)
	}
	if got := p.Controller().ConsentDirectives("P"); len(got) != 1 {
		t.Errorf("ConsentDirectives = %d", len(got))
	}
}
