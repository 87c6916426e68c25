package policy

import (
	"slices"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/schema"
)

func TestBuilderHappyPath(t *testing.T) {
	s := schema.HomeCare()
	policies, err := NewBuilder("municipality-trento", s).
		SelectFields("patient-id", "name", "surname").
		SelectConsumers("family-doctor", "social-welfare/home-care").
		SelectPurposes(event.PurposeHealthcareTreatment, event.PurposeSocialAssistance).
		Label("home care basics", "identity-only access for caregivers").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(policies) != 2 {
		t.Fatalf("Build returned %d policies, want 2 (one per consumer)", len(policies))
	}
	p := policies[0]
	if p.Producer != "municipality-trento" || p.Class != schema.ClassHomeCare {
		t.Errorf("policy header: %+v", p)
	}
	if len(p.Fields) != 3 || len(p.Purposes) != 2 {
		t.Errorf("policy selections: fields=%d purposes=%d", len(p.Fields), len(p.Purposes))
	}
	if p.Name != "home care basics" {
		t.Errorf("Name = %q", p.Name)
	}
	if policies[0].Actor == policies[1].Actor {
		t.Error("both policies have the same actor")
	}
	// Each built policy must pass full validation.
	for _, p := range policies {
		if err := p.Validate(); err != nil {
			t.Errorf("built policy invalid: %v", err)
		}
	}
}

func TestBuilderSelectAllFieldsExcept(t *testing.T) {
	s := schema.BloodTest()
	policies, err := NewBuilder("hospital-s-maria", s).
		SelectAllFieldsExcept("aids-test", "lab-notes").
		SelectConsumers("family-doctor").
		SelectPurposes(event.PurposeHealthcareTreatment).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := policies[0]
	if slices.Contains(p.Fields, "aids-test") || slices.Contains(p.Fields, "lab-notes") {
		t.Error("excluded field present in policy")
	}
	if !slices.Contains(p.Fields, "hemoglobin") || !slices.Contains(p.Fields, "patient-id") {
		t.Error("non-excluded field missing from policy")
	}
	if len(p.Fields) != len(s.FieldNames())-2 {
		t.Errorf("field count = %d", len(p.Fields))
	}
}

func TestBuilderRejectsUnknownField(t *testing.T) {
	if _, err := NewBuilder("p", schema.HomeCare()).
		SelectFields("no-such-field").
		SelectConsumers("x").
		SelectPurposes("y").
		Build(); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := NewBuilder("p", schema.HomeCare()).
		SelectAllFieldsExcept("no-such-field").
		SelectConsumers("x").
		SelectPurposes("y").
		Build(); err == nil {
		t.Error("unknown excluded field accepted")
	}
}

func TestBuilderRejectsDuplicatesAndEmptiness(t *testing.T) {
	if _, err := NewBuilder("p", schema.HomeCare()).
		SelectFields("name").
		SelectFields("name").
		SelectConsumers("x").
		SelectPurposes("y").
		Build(); err == nil {
		t.Error("duplicate field selection accepted")
	}
	if _, err := NewBuilder("p", schema.HomeCare()).
		SelectFields("name").
		SelectPurposes("y").
		Build(); err == nil {
		t.Error("no consumers accepted")
	}
	if _, err := NewBuilder("p", schema.HomeCare()).
		SelectFields("name").
		SelectConsumers("x").
		Build(); err == nil {
		t.Error("no purposes accepted")
	}
	if _, err := NewBuilder("p", schema.HomeCare()).
		SelectConsumers("x").
		SelectPurposes("y").
		Build(); err == nil {
		t.Error("no fields accepted")
	}
	if _, err := NewBuilder("", schema.HomeCare()).
		SelectFields("name").SelectConsumers("x").SelectPurposes("y").
		Build(); err == nil {
		t.Error("empty producer accepted")
	}
	if _, err := NewBuilder("p", nil).
		Build(); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := NewBuilder("p", schema.HomeCare()).
		SelectFields("name").
		SelectConsumers("bad//actor").
		SelectPurposes("y").
		Build(); err == nil {
		t.Error("bad consumer actor accepted")
	}
}

func TestBuilderFirstErrorWins(t *testing.T) {
	_, err := NewBuilder("p", schema.HomeCare()).
		SelectFields("no-such-field"). // first error
		SelectConsumers("bad//actor"). // would be a second error
		Build()
	if err == nil || err.Error() == "" {
		t.Fatal("expected error")
	}
	want := "declares no field"
	if got := err.Error(); !contains(got, want) {
		t.Errorf("error = %q, want it to mention %q (first failure)", got, want)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestBuilderValidityWindow(t *testing.T) {
	until := time.Date(2010, 12, 31, 0, 0, 0, 0, time.UTC)
	policies, err := NewBuilder("p", schema.HomeCare()).
		SelectFields("patient-id").
		SelectConsumers("contractor").
		SelectPurposes(event.PurposeSocialAssistance).
		ValidUntil(until).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := policies[0]
	if !p.NotBefore.IsZero() || !p.NotAfter.Equal(until) {
		t.Errorf("window = [%v, %v]", p.NotBefore, p.NotAfter)
	}
	if p.ValidAt(until.AddDate(0, 1, 0)) {
		t.Error("policy valid after contract end")
	}
}

func TestBuilderDefaultLabel(t *testing.T) {
	policies, err := NewBuilder("p", schema.HomeCare()).
		SelectFields("patient-id").
		SelectConsumers("c").
		SelectPurposes("s").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if policies[0].Name == "" {
		t.Error("Build left Name empty")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	p := validPolicy()
	p.ID = "pol-000123"
	p.NotBefore = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	p.NotAfter = time.Date(2010, 12, 31, 0, 0, 0, 0, time.UTC)
	p.CreatedAt = time.Date(2010, 2, 2, 12, 0, 0, 0, time.UTC)
	data, err := Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.ID != p.ID || got.Actor != p.Actor || got.Class != p.Class ||
		got.Producer != p.Producer || got.Name != p.Name {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Fields) != len(p.Fields) || len(got.Purposes) != len(p.Purposes) {
		t.Errorf("selection sizes: %d/%d", len(got.Fields), len(got.Purposes))
	}
	if !got.NotBefore.Equal(p.NotBefore) || !got.NotAfter.Equal(p.NotAfter) || !got.CreatedAt.Equal(p.CreatedAt) {
		t.Errorf("times mismatch: %+v", got)
	}
}

func TestXMLRoundTripZeroTimes(t *testing.T) {
	p := validPolicy()
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.NotBefore.IsZero() || !got.NotAfter.IsZero() {
		t.Errorf("zero times not preserved: %v %v", got.NotBefore, got.NotAfter)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("Decode accepted garbage")
	}
	// Valid XML, invalid policy (no fields).
	bad := `<privacyPolicy id="x"><producer>p</producer><actor>a</actor><class>c.x</class><purposes><purpose>s</purpose></purposes></privacyPolicy>`
	if _, err := Decode([]byte(bad)); err == nil {
		t.Error("Decode accepted policy with no fields")
	}
	badTime := `<privacyPolicy id="x"><producer>p</producer><actor>a</actor><class>c.x</class><purposes><purpose>s</purpose></purposes><fields><field>f</field></fields><notBefore>not-a-time</notBefore></privacyPolicy>`
	if _, err := Decode([]byte(badTime)); err == nil {
		t.Error("Decode accepted bad timestamp")
	}
}
