// Package policy implements the event-based privacy policy model of the
// paper (§5):
//
//	Definition 2: p = {A, e_j, S, F} — actor, event details type, set of
//	purposes, and the subset of fields the actor may access;
//	Definition 3: p matches request r = {A_r, τ_e, s_r} iff the event
//	types coincide, the actor matches, and the purpose is allowed;
//	Definition 4: an event instance is privacy safe for p iff it exposes
//	no non-empty field outside F.
//
// Policies are defined by the data producers (they, not the controller,
// know which parts of an event are sensitive) through the elicitation
// builder, stored in a Repository at the data controller, and matched
// during detail-request resolution and subscription authorization with
// deny-by-default semantics.
package policy

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/event"
)

// ID identifies a policy in the repository.
type ID string

// Policy is one privacy policy rule in the sense of Definition 2,
// extended with the optional validity window of the elicitation tool
// (Fig. 7: "valid until", useful when private companies should access
// events only for the duration of their contract).
type Policy struct {
	// ID is the repository identifier, assigned on Add if empty.
	ID ID
	// Name and Description label the rule in the elicitation tool.
	Name        string
	Description string
	// Producer is the data source that defined (and owns) the policy.
	Producer event.ProducerID
	// Actor is A: the consumer subject the rule applies to. Thanks to the
	// organizational hierarchy, a rule granted to an organization covers
	// all of its departments.
	Actor event.Actor
	// Class is e_j: the event details type the rule protects.
	Class event.ClassID
	// Purposes is S: the admissible purposes of use.
	Purposes []event.Purpose
	// Fields is F ⊆ e_j: the fields the actor may access.
	Fields []event.FieldName
	// NotBefore/NotAfter bound the validity window; zero values mean
	// unbounded on that side.
	NotBefore time.Time
	NotAfter  time.Time
	// CreatedAt is when the rule was stored.
	CreatedAt time.Time
}

// Validate checks structural integrity of the policy.
func (p *Policy) Validate() error {
	if p.Producer == "" {
		return errors.New("policy: missing producer")
	}
	if err := p.Actor.Validate(); err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	if err := p.Class.Validate(); err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	if len(p.Purposes) == 0 {
		return errors.New("policy: no purposes")
	}
	seenPurpose := make(map[event.Purpose]bool, len(p.Purposes))
	for _, s := range p.Purposes {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("policy: %w", err)
		}
		if seenPurpose[s] {
			return fmt.Errorf("policy: duplicate purpose %q", s)
		}
		seenPurpose[s] = true
	}
	if len(p.Fields) == 0 {
		// A policy with no fields would permit the request but release
		// nothing; the elicitation tool prevents it, and so do we: use
		// deny-by-default (no policy) to deny.
		return errors.New("policy: no fields")
	}
	seenField := make(map[event.FieldName]bool, len(p.Fields))
	for _, f := range p.Fields {
		if f == "" {
			return errors.New("policy: empty field name")
		}
		if seenField[f] {
			return fmt.Errorf("policy: duplicate field %q", f)
		}
		seenField[f] = true
	}
	if !p.NotBefore.IsZero() && !p.NotAfter.IsZero() && p.NotAfter.Before(p.NotBefore) {
		return errors.New("policy: validity window ends before it starts")
	}
	// The XACML and persisted forms write the bounds as RFC 3339 text,
	// which stops at year 9999; the event wire's narrower range covers it.
	for _, bound := range []time.Time{p.NotBefore, p.NotAfter} {
		if err := event.CheckWireTime(bound); err != nil {
			return fmt.Errorf("policy: validity window: %w", err)
		}
	}
	return nil
}

// AllowsPurpose reports whether s ∈ S.
func (p *Policy) AllowsPurpose(s event.Purpose) bool {
	for _, allowed := range p.Purposes {
		if allowed == s {
			return true
		}
	}
	return false
}

// ValidAt reports whether the policy's validity window covers t.
func (p *Policy) ValidAt(t time.Time) bool {
	if !p.NotBefore.IsZero() && t.Before(p.NotBefore) {
		return false
	}
	if !p.NotAfter.IsZero() && t.After(p.NotAfter) {
		return false
	}
	return true
}

// Matches implements Definition 3 over a detail request: same event type,
// actor covered by the policy's actor (exact subject or a department of
// the granted organization), allowed purpose, and — as an extension — a
// valid time window at the request instant.
func (p *Policy) Matches(r *event.DetailRequest) bool {
	if p.Class != r.Class {
		return false
	}
	if !p.Actor.Contains(r.Requester) {
		return false
	}
	if !p.AllowsPurpose(r.Purpose) {
		return false
	}
	at := r.At
	if at.IsZero() {
		at = time.Now()
	}
	return p.ValidAt(at)
}

// Clone returns a deep copy of the policy.
func (p *Policy) Clone() *Policy {
	c := *p
	c.Purposes = append([]event.Purpose(nil), p.Purposes...)
	c.Fields = append([]event.FieldName(nil), p.Fields...)
	return &c
}

// sortedFields returns F sorted by name, for deterministic serialization.
func (p *Policy) sortedFields() []event.FieldName {
	out := append([]event.FieldName(nil), p.Fields...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedPurposes returns S sorted, for deterministic serialization.
func (p *Policy) sortedPurposes() []event.Purpose {
	out := append([]event.Purpose(nil), p.Purposes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
