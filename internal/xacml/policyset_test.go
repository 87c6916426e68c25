package xacml

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/policy"
)

func producerPolicies() []*policy.Policy {
	return []*policy.Policy{
		{
			ID: "pol-000001", Producer: "hospital", Actor: "org",
			Class:    "hospital.blood-test",
			Purposes: []event.Purpose{"care"},
			Fields:   []event.FieldName{"patient-id"},
		},
		{
			ID: "pol-000002", Producer: "hospital", Actor: "org/dept",
			Class:    "hospital.blood-test",
			Purposes: []event.Purpose{"care"},
			Fields:   []event.FieldName{"patient-id", "hemoglobin"},
		},
		{
			ID: "pol-000003", Producer: "hospital", Actor: "gov",
			Class:    "hospital.discharge",
			Purposes: []event.Purpose{"stats"},
			Fields:   []event.FieldName{"patient-id"},
		},
	}
}

func TestCompileProducerSet(t *testing.T) {
	ps, err := CompileProducerSet("hospital", producerPolicies())
	if err != nil {
		t.Fatalf("CompileProducerSet: %v", err)
	}
	if len(ps.Policies) != 3 || ps.Alg != FirstApplicable {
		t.Fatalf("set = %+v", ps)
	}
	// Most specific actor first.
	if ps.Policies[0].ID != "pol-000002" {
		t.Errorf("ordering = %s first", ps.Policies[0].ID)
	}
	// Guards.
	if _, err := CompileProducerSet("", producerPolicies()); err == nil {
		t.Error("empty producer accepted")
	}
	if _, err := CompileProducerSet("hospital", nil); err == nil {
		t.Error("empty corpus accepted")
	}
	foreign := producerPolicies()
	foreign[1].Producer = "someone-else"
	if _, err := CompileProducerSet("hospital", foreign); err == nil {
		t.Error("foreign policy accepted")
	}
}

func TestPolicySetEvaluate(t *testing.T) {
	ps, err := CompileProducerSet("hospital", producerPolicies())
	if err != nil {
		t.Fatal(err)
	}
	// Department request hits the most specific policy (2 fields).
	req := CompileRequest(&event.DetailRequest{
		Requester: "org/dept", Class: "hospital.blood-test", EventID: "e", Purpose: "care",
	})
	resp := ps.Evaluate(req)
	if resp.Decision != Permit || resp.PolicyID != "pol-000002" {
		t.Fatalf("dept response = %+v", resp)
	}
	if got := AuthorizedFields(&resp); len(got) != 2 {
		t.Errorf("fields = %v", got)
	}
	// Sibling actor falls through to the org-level policy.
	req2 := CompileRequest(&event.DetailRequest{
		Requester: "org/other", Class: "hospital.blood-test", EventID: "e", Purpose: "care",
	})
	resp2 := ps.Evaluate(req2)
	if resp2.Decision != Permit || resp2.PolicyID != "pol-000001" {
		t.Errorf("sibling response = %+v", resp2)
	}
	// No match.
	req3 := CompileRequest(&event.DetailRequest{
		Requester: "nobody", Class: "hospital.blood-test", EventID: "e", Purpose: "care",
	})
	if resp := ps.Evaluate(req3); resp.Decision != NotApplicable {
		t.Errorf("no-match = %v", resp.Decision)
	}
	// Set-level target gates everything.
	ps.Target.Subjects = [][]Match{{{AttrID: AttrSubjectID, Func: FuncStringEqual, Value: "only-me"}}}
	if resp := ps.Evaluate(req); resp.Decision != NotApplicable {
		t.Errorf("gated set = %v", resp.Decision)
	}
}

func TestPolicySetXMLRoundTrip(t *testing.T) {
	ps, err := CompileProducerSet("hospital", producerPolicies())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSet(ps)
	if err != nil {
		t.Fatalf("EncodeSet: %v", err)
	}
	s := string(data)
	for _, want := range []string{"PolicySetId=", "PolicyCombiningAlgId=", "pol-000002", "hospital.discharge"} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded set missing %q", want)
		}
	}
	got, err := DecodeSet(data)
	if err != nil {
		t.Fatalf("DecodeSet: %v", err)
	}
	if len(got.Policies) != 3 || got.ID != ps.ID {
		t.Fatalf("round trip = %+v", got)
	}
	// Same decisions after the round trip.
	req := CompileRequest(&event.DetailRequest{
		Requester: "org/dept", Class: "hospital.blood-test", EventID: "e", Purpose: "care",
	})
	a, b := ps.Evaluate(req), got.Evaluate(req)
	if a.Decision != b.Decision || a.PolicyID != b.PolicyID {
		t.Errorf("diverged: %+v vs %+v", a, b)
	}
}

func TestDecodeSetRejectsInvalid(t *testing.T) {
	if _, err := DecodeSet([]byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := DecodeSet([]byte(`<PolicySet PolicySetId="x" PolicyCombiningAlgId="urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:first-applicable"><Target></Target></PolicySet>`)); err == nil {
		t.Error("empty set accepted")
	}
}
