package policy

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/event"
	"repro/internal/schema"
)

// Builder is the programmatic form of the Privacy Requirements
// Elicitation Tool (paper §6, Figs 6-7): a step-by-step construction of
// privacy policy rules that requires no knowledge of the enforcement
// notation. The user (a privacy expert at the data source, not a
// technician) picks, for one event class:
//
//  1. the fields of the event details to release,
//  2. one or more consumers (organizational units),
//  3. the admissible purposes,
//  4. a label, an optional description and an optional validity window,
//
// and Build emits one Definition-2 policy per selected consumer, each
// validated against the event schema so a rule can never name a field the
// class does not have.
type Builder struct {
	producer  event.ProducerID
	schema    *schema.Schema
	fields    []event.FieldName
	consumers []event.Actor
	purposes  []event.Purpose
	name      string
	desc      string
	notAfter  time.Time
	err       error
}

// NewBuilder starts the elicitation of rules for one event class owned by
// producer. The schema drives field validation and is what the tool's UI
// renders as the list of selectable fields.
func NewBuilder(producer event.ProducerID, s *schema.Schema) *Builder {
	b := &Builder{producer: producer, schema: s}
	if producer == "" {
		b.err = errors.New("policy: builder: empty producer")
	}
	if s == nil {
		b.err = errors.New("policy: builder: nil schema")
	}
	return b
}

func (b *Builder) fail(err error) *Builder {
	if b.err == nil {
		b.err = err
	}
	return b
}

// SelectFields adds fields to release ("Select one or more items from the
// list of fields in the event details type").
func (b *Builder) SelectFields(fields ...event.FieldName) *Builder {
	if b.err != nil {
		return b
	}
	if err := b.schema.CheckFields(fields); err != nil {
		return b.fail(err)
	}
	for _, f := range fields {
		for _, have := range b.fields {
			if have == f {
				return b.fail(fmt.Errorf("policy: builder: field %s selected twice", f))
			}
		}
		b.fields = append(b.fields, f)
	}
	return b
}

// SelectAllFieldsExcept releases every schema field except the listed
// ones — the idiom for "obfuscate the AIDS test result, release the rest".
func (b *Builder) SelectAllFieldsExcept(excluded ...event.FieldName) *Builder {
	if b.err != nil {
		return b
	}
	if err := b.schema.CheckFields(excluded); err != nil {
		return b.fail(err)
	}
	skip := make(map[event.FieldName]bool, len(excluded))
	for _, f := range excluded {
		skip[f] = true
	}
	var fields []event.FieldName
	for _, f := range b.schema.FieldNames() {
		if !skip[f] {
			fields = append(fields, f)
		}
	}
	return b.SelectFields(fields...)
}

// SelectConsumers adds the consumer organizational units the rule applies
// to; one policy is emitted per consumer.
func (b *Builder) SelectConsumers(consumers ...event.Actor) *Builder {
	if b.err != nil {
		return b
	}
	for _, c := range consumers {
		if err := c.Validate(); err != nil {
			return b.fail(err)
		}
		b.consumers = append(b.consumers, c)
	}
	return b
}

// SelectPurposes adds the admissible purposes of use.
func (b *Builder) SelectPurposes(purposes ...event.Purpose) *Builder {
	if b.err != nil {
		return b
	}
	for _, s := range purposes {
		if err := s.Validate(); err != nil {
			return b.fail(err)
		}
		b.purposes = append(b.purposes, s)
	}
	return b
}

// Label names the rule ("Privacy rules are saved with a name and a
// description").
func (b *Builder) Label(name, description string) *Builder {
	if b.err != nil {
		return b
	}
	b.name, b.desc = name, description
	return b
}

// ValidUntil bounds the rule in time (Fig. 7 "Valid until"), typically to
// the duration of a private company's care contract.
func (b *Builder) ValidUntil(t time.Time) *Builder {
	if b.err != nil {
		return b
	}
	b.notAfter = t
	return b
}

// Build validates the elicited selections and returns one policy per
// selected consumer.
func (b *Builder) Build() ([]*Policy, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.consumers) == 0 {
		return nil, errors.New("policy: builder: no consumers selected")
	}
	name := b.name
	if name == "" {
		name = fmt.Sprintf("rule for %s", b.schema.Class())
	}
	out := make([]*Policy, 0, len(b.consumers))
	for _, c := range b.consumers {
		p := &Policy{
			Name:        name,
			Description: b.desc,
			Producer:    b.producer,
			Actor:       c,
			Class:       b.schema.Class(),
			Purposes:    append([]event.Purpose(nil), b.purposes...),
			Fields:      append([]event.FieldName(nil), b.fields...),
			NotAfter:    b.notAfter,
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
