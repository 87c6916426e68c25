package xacml

import (
	"encoding/xml"
	"fmt"

	"repro/internal/event"
	"repro/internal/policy"
)

// PolicySet is the XACML container grouping policies under a shared
// target and a policy-combining algorithm. CSS uses it as the exported
// form of one data producer's whole policy corpus — the artifact a
// producer hands to an auditor or migrates to another XACML engine.
type PolicySet struct {
	ID          string
	Description string
	Alg         CombiningAlg
	Target      Target
	Policies    []*Policy
}

// Validate checks structural integrity of the set and of every member.
func (ps *PolicySet) Validate() error {
	if ps.ID == "" {
		return fmt.Errorf("xacml: policy set without id")
	}
	if !validAlgs[ps.Alg] {
		return fmt.Errorf("xacml: policy set %s: unknown combining algorithm %q", ps.ID, ps.Alg)
	}
	if len(ps.Policies) == 0 {
		return fmt.Errorf("xacml: policy set %s has no policies", ps.ID)
	}
	seen := map[string]bool{}
	for _, p := range ps.Policies {
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.ID] {
			return fmt.Errorf("xacml: policy set %s: duplicate policy id %q", ps.ID, p.ID)
		}
		seen[p.ID] = true
	}
	return nil
}

// CompileProducerSet compiles a producer's policies into one PolicySet,
// first-applicable, ordered most-specific-actor-first so the set's
// standalone evaluation agrees with the platform's Definition-3
// resolution order.
func CompileProducerSet(producer event.ProducerID, policies []*policy.Policy) (*PolicySet, error) {
	if producer == "" {
		return nil, fmt.Errorf("xacml: empty producer")
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("xacml: producer %s has no policies to export", producer)
	}
	ordered := policy.OrderForEnforcement(policies)
	ps := &PolicySet{
		ID:          "policy-set:" + string(producer),
		Description: fmt.Sprintf("privacy policies of data producer %s", producer),
		Alg:         FirstApplicable,
	}
	for _, p := range ordered {
		if p.Producer != producer {
			return nil, fmt.Errorf("xacml: policy %s belongs to %s, not %s", p.ID, p.Producer, producer)
		}
		compiled, err := Compile(p)
		if err != nil {
			return nil, err
		}
		ps.Policies = append(ps.Policies, compiled)
	}
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	return ps, nil
}

// XML form of a policy set.

type xmlPolicySet struct {
	XMLName     xml.Name     `xml:"PolicySet"`
	PolicySetID string       `xml:"PolicySetId,attr"`
	Alg         CombiningAlg `xml:"PolicyCombiningAlgId,attr"`
	Description string       `xml:"Description,omitempty"`
	Target      xmlTarget    `xml:"Target"`
	Policies    []xmlPolicy  `xml:"Policy"`
}

// EncodeSet serializes a policy set.
func EncodeSet(ps *PolicySet) ([]byte, error) {
	w := xmlPolicySet{
		PolicySetID: ps.ID,
		Alg:         ps.Alg,
		Description: ps.Description,
		Target:      toXMLTarget(ps.Target),
	}
	for _, p := range ps.Policies {
		data, err := Encode(p)
		if err != nil {
			return nil, err
		}
		var xp xmlPolicy
		if err := xml.Unmarshal(data, &xp); err != nil {
			return nil, err
		}
		w.Policies = append(w.Policies, xp)
	}
	return xml.MarshalIndent(w, "", "  ")
}
