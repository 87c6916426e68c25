package enforcer

import (
	"errors"
	"testing"

	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/idmap"
	"repro/internal/policy"
	"repro/internal/store"
)

// fixture wires an enforcer with one gateway holding one blood test.
type fixture struct {
	enf *Enforcer
	ids *idmap.Map
	gw  *gateway.Gateway
	gid event.GlobalID
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ids := idmap.New(store.OpenMemory())
	enf, err := New(policy.NewRepository(), ids)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := enf.AttachGateway("hospital", gw); err != nil {
		t.Fatal(err)
	}
	d := event.NewDetail("hospital.blood-test", "src-1", "hospital").
		Set("patient-id", "PRS-1").
		Set("hemoglobin", "13.5").
		Set("aids-test", "negative")
	if err := gw.Persist(d); err != nil {
		t.Fatal(err)
	}
	gid, err := ids.Assign("hospital", "src-1", "hospital.blood-test")
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{enf: enf, ids: ids, gw: gw, gid: gid}
}

func (f *fixture) addPolicy(t *testing.T, fields ...event.FieldName) *policy.Policy {
	t.Helper()
	p, err := f.enf.AddPolicy(&policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    "hospital.blood-test",
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   fields,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (f *fixture) request() *event.DetailRequest {
	return &event.DetailRequest{
		Requester: "family-doctor",
		Class:     "hospital.blood-test",
		EventID:   f.gid,
		Purpose:   event.PurposeHealthcareTreatment,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, idmap.New(store.OpenMemory())); err == nil {
		t.Error("nil repo accepted")
	}
	if _, err := New(policy.NewRepository(), nil); err == nil {
		t.Error("nil id map accepted")
	}
}

func TestAlgorithm1Permit(t *testing.T) {
	f := newFixture(t)
	p := f.addPolicy(t, "patient-id", "hemoglobin")
	d, out, err := f.enf.GetEventDetails(f.request())
	if err != nil {
		t.Fatalf("GetEventDetails: %v", err)
	}
	if out.Decision != event.Permit || out.PolicyID != string(p.ID) {
		t.Errorf("outcome = %+v", out)
	}
	if out.Producer != "hospital" || out.Source != "src-1" {
		t.Errorf("origin = %s/%s", out.Producer, out.Source)
	}
	if v, _ := d.Get("hemoglobin"); v != "13.5" {
		t.Errorf("hemoglobin = %q", v)
	}
	if _, leaked := d.Get("aids-test"); leaked {
		t.Error("aids-test leaked")
	}
	if !d.ExposesOnly(out.Fields) {
		t.Error("response not privacy safe for outcome fields")
	}
}

func TestAlgorithm1DenyByDefault(t *testing.T) {
	f := newFixture(t)
	// No policy at all.
	d, out, err := f.enf.GetEventDetails(f.request())
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	if d != nil || out.Decision != event.Deny {
		t.Errorf("deny returned detail %v, outcome %+v", d, out)
	}
}

func TestAlgorithm1DenyOnMismatches(t *testing.T) {
	f := newFixture(t)
	f.addPolicy(t, "patient-id")
	cases := map[string]func(*event.DetailRequest){
		"wrong actor":   func(r *event.DetailRequest) { r.Requester = "insurance-co" },
		"wrong purpose": func(r *event.DetailRequest) { r.Purpose = event.PurposeStatisticalAnalysis },
	}
	for name, mutate := range cases {
		r := f.request()
		mutate(r)
		if _, out, err := f.enf.GetEventDetails(r); !errors.Is(err, ErrDenied) || out.Decision != event.Deny {
			t.Errorf("%s: err=%v outcome=%+v", name, err, out)
		}
	}
}

func TestAlgorithm1UnknownEvent(t *testing.T) {
	f := newFixture(t)
	f.addPolicy(t, "patient-id")
	r := f.request()
	r.EventID = "evt-never-assigned"
	if _, _, err := f.enf.GetEventDetails(r); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("err = %v, want ErrUnknownEvent", err)
	}
}

func TestAlgorithm1ClassMismatch(t *testing.T) {
	f := newFixture(t)
	// Define a policy for the *claimed* class so the denial can only come
	// from the PIP cross-check.
	if _, err := f.enf.AddPolicy(&policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    "hospital.discharge",
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id"},
	}); err != nil {
		t.Fatal(err)
	}
	r := f.request()
	r.Class = "hospital.discharge" // real class of f.gid is blood-test
	if _, _, err := f.enf.GetEventDetails(r); !errors.Is(err, ErrClassMismatch) {
		t.Errorf("err = %v, want ErrClassMismatch", err)
	}
}

func TestAlgorithm1NoGateway(t *testing.T) {
	ids := idmap.New(store.OpenMemory())
	enf, _ := New(policy.NewRepository(), ids)
	gid, _ := ids.Assign("orphan-producer", "src-1", "c.x")
	if _, err := enf.AddPolicy(&policy.Policy{
		Producer: "orphan-producer",
		Actor:    "a",
		Class:    "c.x",
		Purposes: []event.Purpose{"s"},
		Fields:   []event.FieldName{"f"},
	}); err != nil {
		t.Fatal(err)
	}
	r := &event.DetailRequest{Requester: "a", Class: "c.x", EventID: gid, Purpose: "s"}
	if _, _, err := enf.GetEventDetails(r); !errors.Is(err, ErrNoGateway) {
		t.Errorf("err = %v, want ErrNoGateway", err)
	}
}

func TestAlgorithm1GatewayMiss(t *testing.T) {
	f := newFixture(t)
	f.addPolicy(t, "patient-id")
	// Assign an id for a source the gateway never persisted.
	gid, _ := f.ids.Assign("hospital", "src-ghost", "hospital.blood-test")
	r := f.request()
	r.EventID = gid
	if _, _, err := f.enf.GetEventDetails(r); !errors.Is(err, gateway.ErrNotFound) {
		t.Errorf("err = %v, want gateway.ErrNotFound", err)
	}
}

func TestAlgorithm1InvalidRequest(t *testing.T) {
	f := newFixture(t)
	f.addPolicy(t, "patient-id")
	r := f.request()
	r.Purpose = ""
	if _, out, err := f.enf.GetEventDetails(r); err == nil || out.Decision != event.Deny {
		t.Error("invalid request accepted")
	}
}

// unsafeSource violates Algorithm 2 by returning everything.
type unsafeSource struct{ d *event.Detail }

func (u unsafeSource) GetResponse(event.SourceID, []event.FieldName) (*event.Detail, error) {
	return u.d, nil
}

func TestDefenseInDepthAgainstUnsafeGateway(t *testing.T) {
	ids := idmap.New(store.OpenMemory())
	enf, _ := New(policy.NewRepository(), ids)
	full := event.NewDetail("c.x", "src-1", "rogue").
		Set("allowed", "ok").
		Set("secret", "leak!")
	enf.AttachGateway("rogue", unsafeSource{full})
	gid, _ := ids.Assign("rogue", "src-1", "c.x")
	enf.AddPolicy(&policy.Policy{
		Producer: "rogue", Actor: "a", Class: "c.x",
		Purposes: []event.Purpose{"s"}, Fields: []event.FieldName{"allowed"},
	})
	r := &event.DetailRequest{Requester: "a", Class: "c.x", EventID: gid, Purpose: "s"}
	d, out, err := enf.GetEventDetails(r)
	if !errors.Is(err, ErrUnsafeResponse) {
		t.Fatalf("err = %v, want ErrUnsafeResponse", err)
	}
	if d != nil || out.Decision != event.Deny {
		t.Error("unsafe response was forwarded")
	}
}

func TestRemovePolicy(t *testing.T) {
	f := newFixture(t)
	p := f.addPolicy(t, "patient-id")
	if _, _, err := f.enf.GetEventDetails(f.request()); err != nil {
		t.Fatalf("pre-revocation request failed: %v", err)
	}
	if err := f.enf.RemovePolicy(p.ID); err != nil {
		t.Fatalf("RemovePolicy: %v", err)
	}
	if _, _, err := f.enf.GetEventDetails(f.request()); !errors.Is(err, ErrDenied) {
		t.Errorf("post-revocation err = %v, want ErrDenied", err)
	}
	if err := f.enf.RemovePolicy(p.ID); err == nil {
		t.Error("double revocation succeeded")
	}
}

func TestAttachGatewayValidation(t *testing.T) {
	f := newFixture(t)
	if err := f.enf.AttachGateway("", f.gw); err == nil {
		t.Error("empty producer accepted")
	}
	if err := f.enf.AttachGateway("p", nil); err == nil {
		t.Error("nil gateway accepted")
	}
}

func TestMostSpecificPolicyGovernsFields(t *testing.T) {
	// Two policies match the request: an org-level one with a narrow
	// field set and a department-level one with a wider set. Algorithm 1
	// must enforce the department policy (most specific actor), whatever
	// the definition order — the property the system-level quick test
	// guards.
	f := newFixture(t)
	if _, err := f.enf.AddPolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor",
		Class:    "hospital.blood-test",
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.enf.AddPolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor/north",
		Class:    "hospital.blood-test",
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	}); err != nil {
		t.Fatal(err)
	}
	r := f.request()
	r.Requester = "family-doctor/north"
	d, out, err := f.enf.GetEventDetails(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Fields) != 2 {
		t.Errorf("enforced fields = %v, want the department policy's 2", out.Fields)
	}
	if _, ok := d.Get("hemoglobin"); !ok {
		t.Error("department policy's field missing from response")
	}
}
