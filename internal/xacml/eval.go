package xacml

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// PDP is the Policy Decision Point of a standalone XACML deployment: it
// holds compiled policies and evaluates authorization requests against
// them (paper §5.2 step 2-3: "The PDP retrieves the matching policy ...
// evaluates the matching policy and sends the result to the PEP"). The
// CSS request path decides by Definition 3 over internal/policy instead;
// this PDP evaluates exported policies standalone and is the oracle of
// the equivalence test that keeps the two forms deciding alike. It is
// safe for concurrent use.
type PDP struct {
	// Alg combines the decisions of multiple applicable policies.
	alg CombiningAlg

	mu       sync.RWMutex
	policies []*Policy
	byID     map[string]*Policy
}

// NewPDP creates a PDP with the given policy combining algorithm.
func NewPDP(alg CombiningAlg) (*PDP, error) {
	if !validAlgs[alg] {
		return nil, fmt.Errorf("xacml: unknown combining algorithm %q", alg)
	}
	return &PDP{alg: alg, byID: make(map[string]*Policy)}, nil
}

// Add validates and installs a policy.
func (d *PDP) Add(p *Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.byID[p.ID]; dup {
		return fmt.Errorf("xacml: duplicate policy id %q", p.ID)
	}
	d.byID[p.ID] = p
	d.policies = append(d.policies, p)
	return nil
}

// Remove uninstalls a policy by id.
func (d *PDP) Remove(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.byID[id]; !ok {
		return fmt.Errorf("xacml: no policy %q", id)
	}
	delete(d.byID, id)
	d.policies = slices.DeleteFunc(d.policies, func(p *Policy) bool { return p.ID == id })
	return nil
}

// Len returns the number of installed policies.
func (d *PDP) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.policies)
}

// Evaluate runs the request against the installed policies and combines
// their decisions under the PDP's combining algorithm. With no applicable
// policy the decision is NotApplicable — which the PEP treats as Deny
// (deny-by-default).
func (d *PDP) Evaluate(req *Request) Response {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return combine(d.alg, d.policies, req)
}

// combine evaluates policies in order and combines their decisions under
// alg; a PDP and a policy set share it.
func combine(alg CombiningAlg, policies []*Policy, req *Request) Response {
	resp := Response{Decision: NotApplicable}
	for _, p := range policies {
		r := evaluatePolicy(p, req)
		if r.Decision == NotApplicable {
			continue
		}
		switch alg {
		case FirstApplicable:
			return r
		case DenyOverrides:
			if r.Decision == Deny || r.Decision == Indeterminate {
				return r
			}
			if resp.Decision == NotApplicable {
				resp = r
			}
		case PermitOverrides:
			if r.Decision == Permit {
				return r
			}
			if resp.Decision == NotApplicable {
				resp = r
			}
		}
	}
	return resp
}

// EvaluateOne evaluates the request against a single installed policy,
// identified by id — the two-step resolution of the paper's Algorithm 1,
// where the matching policy is retrieved first ("matchingPolicy(R)") and
// then evaluated. An unknown id yields Indeterminate.
func (d *PDP) EvaluateOne(id string, req *Request) Response {
	d.mu.RLock()
	p := d.byID[id]
	d.mu.RUnlock()
	if p == nil {
		return Response{Decision: Indeterminate, PolicyID: id}
	}
	return evaluatePolicy(p, req)
}

// evaluatePolicy evaluates one policy: target first, then rules under the
// policy's own combining algorithm; obligations whose FulfillOn matches
// the decision are attached.
func evaluatePolicy(p *Policy, req *Request) Response {
	applicable, err := matchTarget(&p.Target, req)
	if err != nil {
		return Response{Decision: Indeterminate, PolicyID: p.ID}
	}
	if !applicable {
		return Response{Decision: NotApplicable}
	}
	decision := NotApplicable
Rules:
	for _, rule := range p.Rules {
		ok, err := matchTarget(&rule.Target, req)
		if err != nil {
			return Response{Decision: Indeterminate, PolicyID: p.ID}
		}
		if !ok {
			continue
		}
		effect := Permit
		if rule.Effect == EffectDeny {
			effect = Deny
		}
		switch p.Alg {
		case FirstApplicable:
			decision = effect
			break Rules
		case DenyOverrides:
			decision = effect
			if effect == Deny {
				break Rules
			}
		case PermitOverrides:
			decision = effect
			if effect == Permit {
				break Rules
			}
		}
	}
	if decision == NotApplicable {
		return Response{Decision: NotApplicable}
	}
	resp := Response{Decision: decision, PolicyID: p.ID}
	want := EffectPermit
	if decision == Deny {
		want = EffectDeny
	}
	for _, o := range p.Obligations {
		if o.FulfillOn == want {
			resp.Obligations = append(resp.Obligations, o)
		}
	}
	return resp
}

// matchTarget evaluates a target against a request.
func matchTarget(t *Target, req *Request) (bool, error) {
	ok, err := matchCategory(t.Subjects, req.Subject, req)
	if err != nil || !ok {
		return false, err
	}
	ok, err = matchCategory(t.Resources, req.Resource, req)
	if err != nil || !ok {
		return false, err
	}
	return matchCategory(t.Actions, req.Action, req)
}

// matchCategory: empty category matches anything; otherwise any group of
// conjunctive matches must hold.
func matchCategory(groups [][]Match, bag []Attribute, req *Request) (bool, error) {
	if len(groups) == 0 {
		return true, nil
	}
	for _, group := range groups {
		ok, err := matchGroup(group, bag, req)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func matchGroup(group []Match, bag []Attribute, req *Request) (bool, error) {
	for _, m := range group {
		// Time comparisons designate the environment bag regardless of the
		// category they appear in.
		lookIn := bag
		if m.AttrID == AttrCurrentTime {
			lookIn = req.Environment
		}
		v, present := get(lookIn, m.AttrID)
		if !present {
			return false, nil
		}
		ok, err := applyFunc(m.Func, m.Value, v)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// applyFunc applies a match function: policyValue is the literal from the
// policy, reqValue the attribute from the request.
func applyFunc(fn, policyValue, reqValue string) (bool, error) {
	switch fn {
	case FuncStringEqual:
		return policyValue == reqValue, nil
	case FuncActorContains:
		return policyValue == reqValue || strings.HasPrefix(reqValue, policyValue+"/"), nil
	case FuncTimeGreaterOrEqual, FuncTimeLessOrEqual:
		pt, err := time.Parse(time.RFC3339Nano, policyValue)
		if err != nil {
			return false, fmt.Errorf("xacml: bad policy time %q: %w", policyValue, err)
		}
		rt, err := time.Parse(time.RFC3339Nano, reqValue)
		if err != nil {
			return false, fmt.Errorf("xacml: bad request time %q: %w", reqValue, err)
		}
		if fn == FuncTimeGreaterOrEqual {
			return !rt.Before(pt), nil // reqValue >= policyValue
		}
		return !rt.After(pt), nil // reqValue <= policyValue
	default:
		return false, fmt.Errorf("xacml: unknown match function %q", fn)
	}
}
