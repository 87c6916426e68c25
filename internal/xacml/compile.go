package xacml

import (
	"fmt"
	"time"

	"repro/internal/event"
	"repro/internal/policy"
)

// Compile translates an event-based privacy policy (Definition 2) into
// its XACML form, exactly as the Privacy Requirements Elicitation Tool
// "automatically generates and stores in a policy repository the privacy
// policy in XACML format" (paper §6):
//
//   - the subject target matches the actor through the organizational
//     hierarchy function;
//   - the resource target matches the event class;
//   - the action target matches any of the allowed purposes;
//   - the validity window becomes current-time comparisons on the subject
//     group (XACML conditions folded into the target);
//   - the field list F becomes an include-fields obligation on Permit.
func Compile(p *policy.Policy) (*Policy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.ID == "" {
		return nil, fmt.Errorf("xacml: cannot compile policy without id (add it to a repository first)")
	}

	subjectGroup := []Match{{
		AttrID: AttrSubjectID,
		Func:   FuncActorContains,
		Value:  string(p.Actor),
	}}
	if !p.NotBefore.IsZero() {
		subjectGroup = append(subjectGroup, Match{
			AttrID: AttrCurrentTime,
			Func:   FuncTimeGreaterOrEqual,
			Value:  p.NotBefore.UTC().Format(time.RFC3339Nano),
		})
	}
	if !p.NotAfter.IsZero() {
		subjectGroup = append(subjectGroup, Match{
			AttrID: AttrCurrentTime,
			Func:   FuncTimeLessOrEqual,
			Value:  p.NotAfter.UTC().Format(time.RFC3339Nano),
		})
	}

	actions := make([][]Match, 0, len(p.Purposes))
	for _, s := range p.Purposes {
		actions = append(actions, []Match{{
			AttrID: AttrActionID,
			Func:   FuncStringEqual,
			Value:  string(s),
		}})
	}

	obligation := Obligation{
		ID:        ObligationIncludeFields,
		FulfillOn: EffectPermit,
	}
	for _, f := range p.Fields {
		obligation.Attrs = append(obligation.Attrs, Attribute{ID: AttrField, Value: string(f)})
	}

	x := &Policy{
		ID:          string(p.ID),
		Description: p.Name,
		Alg:         FirstApplicable,
		Target: Target{
			Subjects:  [][]Match{subjectGroup},
			Resources: [][]Match{{{AttrID: AttrResourceID, Func: FuncStringEqual, Value: string(p.Class)}}},
			Actions:   actions,
		},
		Rules: []Rule{{
			ID:     string(p.ID) + "/permit",
			Effect: EffectPermit,
		}},
		Obligations: []Obligation{obligation},
	}
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return x, nil
}

// CompileRequest translates a detail request into the XACML request the
// Policy Enforcement Point submits to the PDP (paper Fig. 5: "the request
// for details of the data consumer is mapped to an XACML request by the
// policy enforcer").
func CompileRequest(r *event.DetailRequest) *Request {
	at := r.At
	if at.IsZero() {
		at = time.Now()
	}
	return &Request{
		Subject:  []Attribute{{ID: AttrSubjectID, Value: string(r.Requester)}},
		Resource: []Attribute{{ID: AttrResourceID, Value: string(r.Class)}},
		Action:   []Attribute{{ID: AttrActionID, Value: string(r.Purpose)}},
		Environment: []Attribute{{
			ID:    AttrCurrentTime,
			Value: at.UTC().Format(time.RFC3339Nano),
		}},
	}
}
