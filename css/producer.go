package css

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/policy"
)

// Producer is a data source admitted to the platform, with its local
// cooperation gateway. It declares event classes, emits events, and
// elicits the privacy policies that govern them.
type Producer struct {
	platform *Platform
	id       ProducerID
	gw       *gateway.Gateway
}

// DeclareClass installs an event class schema in the catalog.
func (p *Producer) DeclareClass(s *Schema) error {
	return p.platform.ctrl.DeclareClass(p.id, s)
}

// Emit performs one full producer cycle: the detail message is persisted
// in the local cooperation gateway (it never leaves the producer), and
// the notification is published to the data controller, which assigns and
// returns the global event id.
func (p *Producer) Emit(n *Notification, d *Detail) (EventID, error) {
	if n == nil || d == nil {
		return "", errors.New("css: nil notification or detail")
	}
	if n.SourceID != d.SourceID || n.Class != d.Class {
		return "", errors.New("css: notification and detail do not describe the same event")
	}
	if err := p.gw.Persist(d); err != nil {
		return "", err
	}
	return p.platform.ctrl.Publish(n)
}

// Policy starts the elicitation of privacy rules for one of the
// producer's event classes — the programmatic Privacy Requirements
// Elicitation Tool. Terminate the chain with Apply.
func (p *Producer) Policy(s *Schema) *PolicyBuilder {
	return &PolicyBuilder{
		platform: p.platform,
		builder:  policy.NewBuilder(p.id, s),
	}
}

// PendingRequest is a consumer access attempt denied for lack of a
// policy, awaiting the producer's elicitation decision (paper §5).
type PendingRequest = core.PendingRequest

// PolicyBuilder elicits privacy policy rules step by step (Figs 6-7 of
// the paper) and stores them on Apply.
type PolicyBuilder struct {
	platform *Platform
	builder  *policy.Builder
}

// SelectFields adds event fields to release.
func (b *PolicyBuilder) SelectFields(fields ...FieldName) *PolicyBuilder {
	b.builder.SelectFields(fields...)
	return b
}

// SelectAllFieldsExcept releases every field except the listed ones.
func (b *PolicyBuilder) SelectAllFieldsExcept(excluded ...FieldName) *PolicyBuilder {
	b.builder.SelectAllFieldsExcept(excluded...)
	return b
}

// SelectConsumers adds the consumer units the rule applies to.
func (b *PolicyBuilder) SelectConsumers(consumers ...Actor) *PolicyBuilder {
	b.builder.SelectConsumers(consumers...)
	return b
}

// SelectPurposes adds the admissible purposes of use.
func (b *PolicyBuilder) SelectPurposes(purposes ...Purpose) *PolicyBuilder {
	b.builder.SelectPurposes(purposes...)
	return b
}

// Label names the rule.
func (b *PolicyBuilder) Label(name, description string) *PolicyBuilder {
	b.builder.Label(name, description)
	return b
}

// ValidUntil bounds the rule's validity end (e.g. a care contract term).
func (b *PolicyBuilder) ValidUntil(t time.Time) *PolicyBuilder {
	b.builder.ValidUntil(t)
	return b
}

// Apply validates the elicited rules and stores them (one policy per
// selected consumer), returning the stored policies.
func (b *PolicyBuilder) Apply() ([]*Policy, error) {
	policies, err := b.builder.Build()
	if err != nil {
		return nil, err
	}
	stored := make([]*Policy, 0, len(policies))
	for _, p := range policies {
		s, err := b.platform.ctrl.DefinePolicy(p)
		if err != nil {
			// Roll back the rules stored so far so Apply is atomic.
			for _, done := range stored {
				b.platform.ctrl.RevokePolicy(done.ID)
			}
			return nil, err
		}
		stored = append(stored, s)
	}
	return stored, nil
}
