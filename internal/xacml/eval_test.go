package xacml

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// permitPolicy builds a simple policy permitting subject=actor on
// resource=class for action=purpose, with an include-fields obligation.
func permitPolicy(id, actor, class, purpose string, fields ...string) *Policy {
	ob := Obligation{ID: ObligationIncludeFields, FulfillOn: EffectPermit}
	for _, f := range fields {
		ob.Attrs = append(ob.Attrs, Attribute{ID: AttrField, Value: f})
	}
	return &Policy{
		ID:  id,
		Alg: FirstApplicable,
		Target: Target{
			Subjects:  [][]Match{{{AttrID: AttrSubjectID, Func: FuncActorContains, Value: actor}}},
			Resources: [][]Match{{{AttrID: AttrResourceID, Func: FuncStringEqual, Value: class}}},
			Actions:   [][]Match{{{AttrID: AttrActionID, Func: FuncStringEqual, Value: purpose}}},
		},
		Rules:       []Rule{{ID: id + "/permit", Effect: EffectPermit}},
		Obligations: []Obligation{ob},
	}
}

func request(subject, resource, action string) *Request {
	return &Request{
		Subject:     []Attribute{{ID: AttrSubjectID, Value: subject}},
		Resource:    []Attribute{{ID: AttrResourceID, Value: resource}},
		Action:      []Attribute{{ID: AttrActionID, Value: action}},
		Environment: []Attribute{{ID: AttrCurrentTime, Value: time.Now().UTC().Format(time.RFC3339Nano)}},
	}
}

func newPDP(t *testing.T) *PDP {
	t.Helper()
	d, err := NewPDP(FirstApplicable)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewPDPRejectsBadAlg(t *testing.T) {
	if _, err := NewPDP("nonsense"); err == nil {
		t.Error("NewPDP accepted unknown algorithm")
	}
}

func TestEvaluatePermitWithObligations(t *testing.T) {
	d := newPDP(t)
	if err := d.Add(permitPolicy("p1", "doctor", "c.x", "care", "a", "b")); err != nil {
		t.Fatal(err)
	}
	resp := d.Evaluate(request("doctor", "c.x", "care"))
	if resp.Decision != Permit {
		t.Fatalf("Decision = %v", resp.Decision)
	}
	if resp.PolicyID != "p1" {
		t.Errorf("PolicyID = %q", resp.PolicyID)
	}
	if len(resp.Obligations) != 1 {
		t.Fatalf("obligations = %d", len(resp.Obligations))
	}
	if got := resp.Obligations[0].FieldValues(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("obligation fields = %v", got)
	}
}

func TestEvaluateNotApplicable(t *testing.T) {
	d := newPDP(t)
	d.Add(permitPolicy("p1", "doctor", "c.x", "care", "a"))
	cases := []*Request{
		request("nurse", "c.x", "care"),   // wrong subject
		request("doctor", "c.y", "care"),  // wrong resource
		request("doctor", "c.x", "stats"), // wrong action
	}
	for i, r := range cases {
		if resp := d.Evaluate(r); resp.Decision != NotApplicable {
			t.Errorf("case %d: Decision = %v, want NotApplicable", i, resp.Decision)
		}
	}
	// Missing attribute in request: the target cannot match.
	if resp := d.Evaluate(&Request{}); resp.Decision != NotApplicable {
		t.Errorf("empty request: %v", resp.Decision)
	}
}

func TestActorContainsHierarchy(t *testing.T) {
	d := newPDP(t)
	d.Add(permitPolicy("p1", "hospital", "c.x", "care", "a"))
	if resp := d.Evaluate(request("hospital/lab", "c.x", "care")); resp.Decision != Permit {
		t.Errorf("department under granted org: %v", resp.Decision)
	}
	if resp := d.Evaluate(request("hospitality", "c.x", "care")); resp.Decision != NotApplicable {
		t.Errorf("prefix-only actor matched: %v", resp.Decision)
	}
}

func TestTimeWindowMatches(t *testing.T) {
	p := permitPolicy("p1", "doctor", "c.x", "care", "a")
	p.Target.Subjects[0] = append(p.Target.Subjects[0],
		Match{AttrID: AttrCurrentTime, Func: FuncTimeGreaterOrEqual, Value: "2010-01-01T00:00:00Z"},
		Match{AttrID: AttrCurrentTime, Func: FuncTimeLessOrEqual, Value: "2010-12-31T23:59:59Z"},
	)
	d := newPDP(t)
	d.Add(p)
	mk := func(ts string) *Request {
		r := request("doctor", "c.x", "care")
		r.Environment = []Attribute{{ID: AttrCurrentTime, Value: ts}}
		return r
	}
	if resp := d.Evaluate(mk("2010-06-15T12:00:00Z")); resp.Decision != Permit {
		t.Errorf("in-window: %v", resp.Decision)
	}
	if resp := d.Evaluate(mk("2011-06-15T12:00:00Z")); resp.Decision != NotApplicable {
		t.Errorf("after window: %v", resp.Decision)
	}
	if resp := d.Evaluate(mk("2009-06-15T12:00:00Z")); resp.Decision != NotApplicable {
		t.Errorf("before window: %v", resp.Decision)
	}
	// Malformed environment time → Indeterminate.
	if resp := d.Evaluate(mk("not-a-time")); resp.Decision != Indeterminate {
		t.Errorf("bad time: %v", resp.Decision)
	}
}

func TestDenyRuleAndObligationOnDeny(t *testing.T) {
	p := &Policy{
		ID:  "deny-all",
		Alg: DenyOverrides,
		Target: Target{
			Resources: [][]Match{{{AttrID: AttrResourceID, Func: FuncStringEqual, Value: "c.x"}}},
		},
		Rules: []Rule{{ID: "r1", Effect: EffectDeny}},
		Obligations: []Obligation{
			{ID: "log-denial", FulfillOn: EffectDeny},
			{ID: "never-fires", FulfillOn: EffectPermit},
		},
	}
	d := newPDP(t)
	if err := d.Add(p); err != nil {
		t.Fatal(err)
	}
	resp := d.Evaluate(request("anyone", "c.x", "anything"))
	if resp.Decision != Deny {
		t.Fatalf("Decision = %v", resp.Decision)
	}
	if len(resp.Obligations) != 1 || resp.Obligations[0].ID != "log-denial" {
		t.Errorf("deny obligations = %+v", resp.Obligations)
	}
}

func TestCombiningAlgorithms(t *testing.T) {
	permit := permitPolicy("permit", "doctor", "c.x", "care", "a")
	deny := &Policy{
		ID:  "deny",
		Alg: FirstApplicable,
		Target: Target{
			Resources: [][]Match{{{AttrID: AttrResourceID, Func: FuncStringEqual, Value: "c.x"}}},
		},
		Rules: []Rule{{ID: "r", Effect: EffectDeny}},
	}
	req := request("doctor", "c.x", "care")

	mk := func(alg CombiningAlg, first, second *Policy) Decision {
		d, err := NewPDP(alg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Add(first); err != nil {
			t.Fatal(err)
		}
		if err := d.Add(second); err != nil {
			t.Fatal(err)
		}
		return d.Evaluate(req).Decision
	}

	if got := mk(DenyOverrides, permit, deny); got != Deny {
		t.Errorf("deny-overrides = %v", got)
	}
	if got := mk(PermitOverrides, deny, permit); got != Permit {
		t.Errorf("permit-overrides = %v", got)
	}
	if got := mk(FirstApplicable, permit, deny); got != Permit {
		t.Errorf("first-applicable(permit first) = %v", got)
	}
	if got := mk(FirstApplicable, deny, permit); got != Deny {
		t.Errorf("first-applicable(deny first) = %v", got)
	}
}

func TestRuleCombiningInsidePolicy(t *testing.T) {
	p := &Policy{
		ID:  "mixed",
		Alg: DenyOverrides,
		Target: Target{
			Resources: [][]Match{{{AttrID: AttrResourceID, Func: FuncStringEqual, Value: "c.x"}}},
		},
		Rules: []Rule{
			{ID: "permit-care", Effect: EffectPermit,
				Target: Target{Actions: [][]Match{{{AttrID: AttrActionID, Func: FuncStringEqual, Value: "care"}}}}},
			{ID: "deny-stats", Effect: EffectDeny,
				Target: Target{Actions: [][]Match{{{AttrID: AttrActionID, Func: FuncStringEqual, Value: "stats"}}}}},
		},
	}
	d := newPDP(t)
	d.Add(p)
	if resp := d.Evaluate(request("x", "c.x", "care")); resp.Decision != Permit {
		t.Errorf("care = %v", resp.Decision)
	}
	if resp := d.Evaluate(request("x", "c.x", "stats")); resp.Decision != Deny {
		t.Errorf("stats = %v", resp.Decision)
	}
	if resp := d.Evaluate(request("x", "c.x", "other")); resp.Decision != NotApplicable {
		t.Errorf("other = %v", resp.Decision)
	}
}

func TestDisjunctiveActions(t *testing.T) {
	p := permitPolicy("p", "doctor", "c.x", "care", "a")
	p.Target.Actions = append(p.Target.Actions,
		[]Match{{AttrID: AttrActionID, Func: FuncStringEqual, Value: "admin"}})
	d := newPDP(t)
	d.Add(p)
	for _, action := range []string{"care", "admin"} {
		if resp := d.Evaluate(request("doctor", "c.x", action)); resp.Decision != Permit {
			t.Errorf("action %s = %v", action, resp.Decision)
		}
	}
	if resp := d.Evaluate(request("doctor", "c.x", "stats")); resp.Decision != NotApplicable {
		t.Errorf("action stats = %v", resp.Decision)
	}
}

func TestAddRemoveValidation(t *testing.T) {
	d := newPDP(t)
	bad := permitPolicy("", "a", "c", "s", "f")
	if err := d.Add(bad); err == nil {
		t.Error("Add accepted policy without id")
	}
	p := permitPolicy("p", "a", "c.x", "s", "f")
	if err := d.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(p); err == nil {
		t.Error("Add accepted duplicate id")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
	if err := d.Remove("p"); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("p"); err == nil {
		t.Error("Remove of absent policy succeeded")
	}
	if resp := d.Evaluate(request("a", "c.x", "s")); resp.Decision != NotApplicable {
		t.Errorf("after Remove = %v", resp.Decision)
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []func(*Policy){
		func(p *Policy) { p.ID = "" },
		func(p *Policy) { p.Alg = "nonsense" },
		func(p *Policy) { p.Rules = nil },
		func(p *Policy) { p.Rules[0].ID = "" },
		func(p *Policy) { p.Rules[0].Effect = "Maybe" },
		func(p *Policy) { p.Obligations[0].ID = "" },
		func(p *Policy) { p.Obligations[0].FulfillOn = "Maybe" },
	}
	for i, mutate := range cases {
		p := permitPolicy("p", "a", "c", "s", "f")
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid policy accepted", i)
		}
	}
}

func TestResourceIndexFallback(t *testing.T) {
	// A policy with an empty resource target applies to any resource.
	p := &Policy{
		ID:  "catch-all",
		Alg: FirstApplicable,
		Target: Target{
			Subjects: [][]Match{{{AttrID: AttrSubjectID, Func: FuncStringEqual, Value: "auditor"}}},
		},
		Rules: []Rule{{ID: "r", Effect: EffectPermit}},
	}
	d := newPDP(t)
	d.Add(p)
	d.Add(permitPolicy("specific", "doctor", "c.x", "care", "f"))
	if resp := d.Evaluate(request("auditor", "anything.else", "whatever")); resp.Decision != Permit {
		t.Errorf("catch-all on unindexed resource = %v", resp.Decision)
	}
	if resp := d.Evaluate(request("auditor", "c.x", "care")); resp.Decision != Permit {
		t.Errorf("catch-all on indexed resource = %v", resp.Decision)
	}
	// Request without resource attribute: all policies considered.
	r := &Request{Subject: []Attribute{{ID: AttrSubjectID, Value: "auditor"}}}
	if resp := d.Evaluate(r); resp.Decision != Permit {
		t.Errorf("no-resource request = %v", resp.Decision)
	}
}

func TestUnknownMatchFunctionIsIndeterminate(t *testing.T) {
	p := permitPolicy("p", "a", "c.x", "s", "f")
	p.Target.Subjects[0][0].Func = "urn:css:function:does-not-exist"
	d := newPDP(t)
	if err := d.Add(p); err != nil {
		t.Fatal(err)
	}
	if resp := d.Evaluate(request("a", "c.x", "s")); resp.Decision != Indeterminate {
		t.Errorf("unknown function = %v", resp.Decision)
	}
}

func TestPDPConcurrent(t *testing.T) {
	d := newPDP(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("p-%d-%d", g, i)
				if err := d.Add(permitPolicy(id, "actor", fmt.Sprintf("c.x%d", g), "s", "f")); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				d.Evaluate(request("actor", fmt.Sprintf("c.x%d", g), "s"))
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != 200 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestDecisionString(t *testing.T) {
	if Permit.String() != "Permit" || Deny.String() != "Deny" ||
		NotApplicable.String() != "NotApplicable" || Indeterminate.String() != "Indeterminate" {
		t.Error("Decision.String misreports")
	}
}

func TestEvaluateOne(t *testing.T) {
	d := newPDP(t)
	d.Add(permitPolicy("p1", "doctor", "c.x", "care", "a"))
	d.Add(permitPolicy("p2", "doctor", "c.x", "care", "b"))
	// EvaluateOne targets exactly the named policy, regardless of order.
	resp := d.EvaluateOne("p2", request("doctor", "c.x", "care"))
	if resp.Decision != Permit || resp.PolicyID != "p2" {
		t.Fatalf("EvaluateOne(p2) = %+v", resp)
	}
	if got := resp.Obligations[0].FieldValues(); len(got) != 1 || got[0] != "b" {
		t.Errorf("fields = %v", got)
	}
	// Non-matching request against a real policy: NotApplicable.
	if resp := d.EvaluateOne("p1", request("nurse", "c.x", "care")); resp.Decision != NotApplicable {
		t.Errorf("non-matching EvaluateOne = %v", resp.Decision)
	}
	// Unknown id: Indeterminate (fail closed at the PEP).
	if resp := d.EvaluateOne("ghost", request("doctor", "c.x", "care")); resp.Decision != Indeterminate {
		t.Errorf("unknown id = %v", resp.Decision)
	}
}
