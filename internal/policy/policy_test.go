package policy

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/event"
)

func validPolicy() *Policy {
	return &Policy{
		Name:     "family doctor home care access",
		Producer: "municipality-trento",
		Actor:    "family-doctor",
		Class:    "social.home-care-service",
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "name", "surname"},
	}
}

func request() *event.DetailRequest {
	return &event.DetailRequest{
		Requester: "family-doctor",
		Class:     "social.home-care-service",
		EventID:   "G-1",
		Purpose:   event.PurposeHealthcareTreatment,
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := validPolicy().Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Policy)
	}{
		{"missing producer", func(p *Policy) { p.Producer = "" }},
		{"bad actor", func(p *Policy) { p.Actor = "a//b" }},
		{"bad class", func(p *Policy) { p.Class = "Bad Class" }},
		{"no purposes", func(p *Policy) { p.Purposes = nil }},
		{"empty purpose", func(p *Policy) { p.Purposes = []event.Purpose{""} }},
		{"duplicate purpose", func(p *Policy) {
			p.Purposes = []event.Purpose{"x", "x"}
		}},
		{"no fields", func(p *Policy) { p.Fields = nil }},
		{"empty field", func(p *Policy) { p.Fields = []event.FieldName{""} }},
		{"duplicate field", func(p *Policy) { p.Fields = []event.FieldName{"a", "a"} }},
		{"inverted window", func(p *Policy) {
			p.NotBefore = time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
			p.NotAfter = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
		}},
	}
	for _, tc := range cases {
		p := validPolicy()
		tc.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// A bound the RFC 3339 text of the XACML and persisted forms cannot
// write (year 10000), or the event wire cannot carry, is refused; the
// wire's last instant itself is fine.
func TestValidateRefusesWindowOutsideWireRange(t *testing.T) {
	for name, mutate := range map[string]func(*Policy){
		"until 10000": func(p *Policy) { p.NotAfter = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"until 2263":  func(p *Policy) { p.NotAfter = time.Date(2263, 1, 1, 0, 0, 0, 0, time.UTC) },
		"from 1600":   func(p *Policy) { p.NotBefore = time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC) },
	} {
		p := validPolicy()
		mutate(p)
		if err := p.Validate(); !errors.Is(err, event.ErrTimeRange) {
			t.Errorf("%s: Validate = %v, want %v", name, err, event.ErrTimeRange)
		}
		if _, err := NewRepository().Add(p); err == nil {
			t.Errorf("%s: repository accepted the policy", name)
		}
	}
	p := validPolicy()
	p.NotAfter = time.Unix(0, math.MaxInt64).UTC()
	if err := p.Validate(); err != nil {
		t.Errorf("window ending at the wire's last instant: %v", err)
	}
}

func TestAllowsPurposeAndField(t *testing.T) {
	p := validPolicy()
	if !p.AllowsPurpose(event.PurposeHealthcareTreatment) {
		t.Error("allowed purpose rejected")
	}
	if p.AllowsPurpose(event.PurposeStatisticalAnalysis) {
		t.Error("disallowed purpose accepted")
	}
}

func TestValidAt(t *testing.T) {
	mk := func(nb, na time.Time) *Policy {
		p := validPolicy()
		p.NotBefore, p.NotAfter = nb, na
		return p
	}
	t1 := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	before := t1.AddDate(0, -1, 0)
	after := t1.AddDate(0, 1, 0)
	if !mk(time.Time{}, time.Time{}).ValidAt(t1) {
		t.Error("unbounded policy invalid")
	}
	if !mk(before, after).ValidAt(t1) {
		t.Error("in-window instant invalid")
	}
	if mk(after, time.Time{}).ValidAt(t1) {
		t.Error("instant before NotBefore valid")
	}
	if mk(time.Time{}, before).ValidAt(t1) {
		t.Error("instant after NotAfter valid")
	}
	// Boundary instants are inclusive.
	if !mk(t1, t1).ValidAt(t1) {
		t.Error("boundary instant invalid")
	}
}

func TestMatchesDefinition3(t *testing.T) {
	p := validPolicy()
	if !p.Matches(request()) {
		t.Fatal("exact request does not match")
	}
	r := request()
	r.Class = "hospital.blood-test"
	if p.Matches(r) {
		t.Error("different class matched")
	}
	r = request()
	r.Requester = "social-welfare"
	if p.Matches(r) {
		t.Error("different actor matched")
	}
	r = request()
	r.Purpose = event.PurposeAdministration
	if p.Matches(r) {
		t.Error("disallowed purpose matched")
	}
}

func TestMatchesActorHierarchy(t *testing.T) {
	p := validPolicy()
	p.Actor = "hospital-s-maria"
	r := request()
	r.Requester = "hospital-s-maria/laboratory"
	if !p.Matches(r) {
		t.Error("org-level grant does not cover department")
	}
	p2 := validPolicy()
	p2.Actor = "hospital-s-maria/laboratory"
	r2 := request()
	r2.Requester = "hospital-s-maria"
	if p2.Matches(r2) {
		t.Error("department-level grant covers the whole organization")
	}
}

func TestMatchesValidityWindow(t *testing.T) {
	p := validPolicy()
	p.NotAfter = time.Date(2010, 12, 31, 23, 59, 59, 0, time.UTC)
	r := request()
	r.At = time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	if !p.Matches(r) {
		t.Error("in-window request rejected")
	}
	r.At = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)
	if p.Matches(r) {
		t.Error("expired policy matched")
	}
	// Zero At means "now": an expired policy must not match.
	r.At = time.Time{}
	if p.Matches(r) {
		t.Error("expired policy matched at implicit now (2026)")
	}
}

func TestClone(t *testing.T) {
	p := validPolicy()
	c := p.Clone()
	c.Fields[0] = "mutated"
	c.Purposes[0] = "mutated"
	if p.Fields[0] != "patient-id" || p.Purposes[0] != event.PurposeHealthcareTreatment {
		t.Error("Clone shares slices with original")
	}
}
