package css

import (
	"errors"

	"repro/internal/audit"
)

// Citizen is the data subject's own handle on the platform — the
// Personalized Health Record direction the paper names as the system's
// next step (§7: "The system can be used also directly by the citizens to
// specify and control their consent on data exchanges ... the CSS is the
// backbone for the implementation of a Personalized Health Records (PHR)
// in Trentino").
//
// A citizen can review the timeline of their own events, inspect who
// accessed their data and why, and manage their consent directives. The
// identity of the citizen is assumed authenticated by the national
// identity layer the paper defers to; here the handle is created from the
// verified person identifier.
type Citizen struct {
	platform *Platform
	personID string
}

// Citizen returns the handle of a data subject.
func (p *Platform) Citizen(personID string) (*Citizen, error) {
	if personID == "" {
		return nil, errors.New("css: empty person id")
	}
	return &Citizen{platform: p, personID: personID}, nil
}

// Timeline returns the citizen's own notifications — the sequence of
// "snapshots" that §4 describes as the person's social and health
// profile. It bypasses consumer authorization (the data subject always
// sees her own index entries) but redacts producer-local identifiers.
func (c *Citizen) Timeline(q Inquiry) ([]*Notification, error) {
	q.PersonID = c.personID
	raw, err := c.platform.ctrl.InquireOwn(c.personID, q)
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// AccessHistory answers the data subject's auditing inquiry (§2: "to be
// able to answer to auditing inquiry by the privacy guarantor or the data
// subject herself"): every detail request and index access that touched
// one of her events.
func (c *Citizen) AccessHistory() ([]AuditRecord, error) {
	timeline, err := c.Timeline(Inquiry{})
	if err != nil {
		return nil, err
	}
	var out []AuditRecord
	for _, n := range timeline {
		recs, err := c.platform.ctrl.Audit().Search(audit.Query{EventID: n.ID})
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// OptOut records a denial for the citizen, optionally scoped.
func (c *Citizen) OptOut(scope ConsentScope) error {
	return c.platform.OptOut(c.personID, scope)
}

// Directives lists the citizen's recorded consent decisions.
func (c *Citizen) Directives() []ConsentDirective {
	return c.platform.ctrl.ConsentDirectives(c.personID)
}
