// Package xacml implements the subset of the OASIS XACML model that the
// CSS platform compiles its privacy policies into (paper §5.1: "We are
// using XACML to model internally to the Policy Enforcer module the
// privacy policies"). Following the XACML notation, a policy is a set of
// rules with obligations; a rule specifies which actions a subject can
// perform on a resource; in CSS an action corresponds to a purpose of
// use, and the obligations carry the field list that the producer must
// apply when releasing the event details.
//
// The package provides the policy/rule/target object model, a PDP that
// evaluates requests under the standard combining algorithms, an XML
// form shaped like the paper's Fig. 8 listing, and a compiler from the
// event-based policies of internal/policy. The compiled form is the
// export and the test oracle; the enforcer decides by Definition 3 over
// internal/policy, and TestDefinition3EqualsCompiledXACML proves the two
// agree over an exhaustive small scope.
package xacml

import (
	"errors"
	"fmt"
)

// Attribute identifiers used by CSS requests and policies. The subject,
// resource and action ids reuse the standard XACML names; CSS-specific
// attributes live under the urn:css namespace.
const (
	AttrSubjectID   = "urn:oasis:names:tc:xacml:1.0:subject:subject-id"
	AttrResourceID  = "urn:oasis:names:tc:xacml:1.0:resource:resource-id"
	AttrActionID    = "urn:oasis:names:tc:xacml:1.0:action:action-id"
	AttrCurrentTime = "urn:oasis:names:tc:xacml:1.0:environment:current-time"
)

// Match function identifiers.
const (
	// FuncStringEqual is the standard exact string match.
	FuncStringEqual = "urn:oasis:names:tc:xacml:1.0:function:string-equal"
	// FuncActorContains is the CSS extension implementing the
	// organizational hierarchy: the policy value matches a request subject
	// that equals it or is one of its departments.
	FuncActorContains = "urn:css:function:actor-contains"
	// FuncTimeGreaterOrEqual / FuncTimeLessOrEqual compare RFC 3339
	// instants; they express validity windows.
	FuncTimeGreaterOrEqual = "urn:css:function:time-greater-or-equal"
	FuncTimeLessOrEqual    = "urn:css:function:time-less-or-equal"
)

// ObligationIncludeFields is the obligation carried by compiled CSS
// policies: on Permit, the producer must include exactly the listed
// fields in the released event details.
const ObligationIncludeFields = "urn:css:obligation:include-fields"

// AttrField is the attribute id of one field inside an include-fields
// obligation.
const AttrField = "urn:css:attribute:field"

// Effect is the effect of a rule.
type Effect string

// Rule effects.
const (
	EffectPermit Effect = "Permit"
	EffectDeny   Effect = "Deny"
)

// Decision is the outcome of an evaluation.
type Decision int

// Evaluation outcomes. NotApplicable means no policy's target matched;
// Indeterminate reports an evaluation error (e.g. malformed attribute).
const (
	NotApplicable Decision = iota
	Permit
	Deny
	Indeterminate
)

// CombiningAlg identifies a rule/policy combining algorithm.
type CombiningAlg string

// Supported combining algorithms.
const (
	DenyOverrides   CombiningAlg = "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:deny-overrides"
	PermitOverrides CombiningAlg = "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:permit-overrides"
	FirstApplicable CombiningAlg = "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:first-applicable"
)

var validAlgs = map[CombiningAlg]bool{
	DenyOverrides: true, PermitOverrides: true, FirstApplicable: true,
}

// Attribute is one (id, value) pair of a request or an obligation.
type Attribute struct {
	ID    string
	Value string
}

// Request is an XACML authorization request: the attribute bags of the
// subject, resource, action and environment categories.
type Request struct {
	Subject     []Attribute
	Resource    []Attribute
	Action      []Attribute
	Environment []Attribute
}

// Get returns the first value of the attribute with the given id in the
// given bag.
func get(bag []Attribute, id string) (string, bool) {
	for _, a := range bag {
		if a.ID == id {
			return a.Value, true
		}
	}
	return "", false
}

// Match is one attribute test inside a target: apply Func to the literal
// Value and the request attribute designated by AttrID.
type Match struct {
	AttrID string
	Func   string
	Value  string
}

// Target restricts the applicability of a policy or rule. Each category
// holds a disjunction of conjunctions: the category matches if ANY inner
// group matches, and a group matches if ALL its Matches hold. An empty
// category matches everything (XACML AnySubject/AnyResource/AnyAction).
type Target struct {
	Subjects  [][]Match
	Resources [][]Match
	Actions   [][]Match
}

// Rule is one XACML rule: a target plus an effect. (CSS compiles
// conditions into target matches, so Rule has no separate condition.)
type Rule struct {
	ID     string
	Effect Effect
	Target Target
}

// Obligation is an operation the PEP must fulfil when the decision
// matches FulfillOn — for CSS, the include-fields directive.
type Obligation struct {
	ID        string
	FulfillOn Effect
	Attrs     []Attribute
}

// Policy is an XACML policy: a target, a combined set of rules, and
// obligations delivered with matching decisions.
type Policy struct {
	ID          string
	Description string
	Alg         CombiningAlg
	Target      Target
	Rules       []Rule
	Obligations []Obligation
}

// Validate checks structural integrity of the policy.
func (p *Policy) Validate() error {
	if p.ID == "" {
		return errors.New("xacml: policy without id")
	}
	if !validAlgs[p.Alg] {
		return fmt.Errorf("xacml: policy %s: unknown combining algorithm %q", p.ID, p.Alg)
	}
	if len(p.Rules) == 0 {
		return fmt.Errorf("xacml: policy %s has no rules", p.ID)
	}
	for i, r := range p.Rules {
		if r.ID == "" {
			return fmt.Errorf("xacml: policy %s: rule %d without id", p.ID, i)
		}
		if r.Effect != EffectPermit && r.Effect != EffectDeny {
			return fmt.Errorf("xacml: policy %s: rule %s has invalid effect %q", p.ID, r.ID, r.Effect)
		}
	}
	for _, o := range p.Obligations {
		if o.ID == "" {
			return fmt.Errorf("xacml: policy %s: obligation without id", p.ID)
		}
		if o.FulfillOn != EffectPermit && o.FulfillOn != EffectDeny {
			return fmt.Errorf("xacml: policy %s: obligation %s has invalid FulfillOn %q", p.ID, o.ID, o.FulfillOn)
		}
	}
	return nil
}

// Response is the result of a PDP evaluation: the decision, the
// obligations of the deciding policy whose FulfillOn matches, and the id
// of the policy that determined the decision (empty for NotApplicable).
type Response struct {
	Decision    Decision
	Obligations []Obligation
	PolicyID    string
}
