package xacml

import (
	"encoding/xml"
	"fmt"
	"slices"

	"repro/internal/event"
)

// String returns the XACML name of the decision.
func (d Decision) String() string {
	switch d {
	case Permit:
		return "Permit"
	case Deny:
		return "Deny"
	case Indeterminate:
		return "Indeterminate"
	default:
		return "NotApplicable"
	}
}

// FieldValues returns the values of all AttrField attributes, i.e. the
// authorized field names of an include-fields obligation.
func (o *Obligation) FieldValues() []string {
	var out []string
	for _, a := range o.Attrs {
		if a.ID == AttrField {
			out = append(out, a.Value)
		}
	}
	return out
}

// AuthorizedFields extracts the field names of the include-fields
// obligations of a Permit response. A Permit without such an obligation
// authorizes no fields at all (fail closed).
func AuthorizedFields(resp *Response) []event.FieldName {
	if resp.Decision != Permit {
		return nil
	}
	var out []event.FieldName
	for _, o := range resp.Obligations {
		if o.ID != ObligationIncludeFields {
			continue
		}
		for _, v := range o.FieldValues() {
			out = append(out, event.FieldName(v))
		}
	}
	return out
}

// Evaluate runs a request against the set: the set's target gates the
// members, whose decisions combine under the set's algorithm.
func (ps *PolicySet) Evaluate(req *Request) Response {
	applicable, err := matchTarget(&ps.Target, req)
	if err != nil {
		return Response{Decision: Indeterminate, PolicyID: ps.ID}
	}
	if !applicable {
		return Response{Decision: NotApplicable}
	}
	return combine(ps.Alg, ps.Policies, req)
}

// DecodeSet parses and re-validates a policy set.
func DecodeSet(data []byte) (*PolicySet, error) {
	var w xmlPolicySet
	if err := xml.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("xacml: decode set: %w", err)
	}
	ps := &PolicySet{
		ID:          w.PolicySetID,
		Description: w.Description,
		Alg:         w.Alg,
		Target:      fromXMLTarget(w.Target),
	}
	for _, xp := range w.Policies {
		// Round-trip each member through the policy decoder for its
		// validation.
		data, err := xml.Marshal(xp)
		if err != nil {
			return nil, err
		}
		p, err := Decode(data)
		if err != nil {
			return nil, err
		}
		ps.Policies = append(ps.Policies, p)
	}
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	return ps, nil
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
