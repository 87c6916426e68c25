// Package process implements the care-process monitoring layer that
// motivates the CSS platform (paper §1: e-government projects "monitor,
// control and trace the clinical and assistive processes"; §4: "the
// clinical and assistive processes to be monitored ... capture the
// business processes executed and the bits of data they produce").
//
// A Pathway declares the expected stages of a multi-organization care
// process as an ordered sequence of event classes with deadlines (e.g.
// hospital discharge → home-care activation within 7 days → first nursing
// intervention within 14 days). The Monitor consumes notification
// messages — the only data the privacy architecture routes freely — and
// tracks one instance per (pathway, person), reporting progress, stalls
// and completions. Monitoring thus works exactly on the paper's premise:
// the "visible effects of the business processes captured by data
// events", with no access to sensitive details.
package process

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/event"
)

// Stage is one expected step of a pathway.
type Stage struct {
	// Name labels the stage for reports.
	Name string
	// Class is the event class whose notification completes the stage.
	Class event.ClassID
	// Within bounds the time from the previous stage's completion (from
	// the triggering event for the first stage). Zero means no deadline.
	Within time.Duration
}

// Pathway is a declared care process.
type Pathway struct {
	// Name identifies the pathway.
	Name string
	// Trigger is the event class that opens an instance for a person.
	Trigger event.ClassID
	// Stages are the expected steps after the trigger, in order.
	Stages []Stage
}

// Validate checks structural integrity of the pathway declaration.
func (p *Pathway) Validate() error {
	if p.Name == "" {
		return errors.New("process: pathway without name")
	}
	if err := p.Trigger.Validate(); err != nil {
		return fmt.Errorf("process: pathway %s: %w", p.Name, err)
	}
	if len(p.Stages) == 0 {
		return fmt.Errorf("process: pathway %s has no stages", p.Name)
	}
	for i, s := range p.Stages {
		if s.Name == "" {
			return fmt.Errorf("process: pathway %s: stage %d without name", p.Name, i)
		}
		if err := s.Class.Validate(); err != nil {
			return fmt.Errorf("process: pathway %s stage %s: %w", p.Name, s.Name, err)
		}
		if s.Within < 0 {
			return fmt.Errorf("process: pathway %s stage %s: negative deadline", p.Name, s.Name)
		}
	}
	return nil
}

// State classifies a pathway instance.
type State int

const (
	// Active: the instance progresses within its deadlines.
	Active State = iota
	// Stalled: the next stage's deadline has passed without its event.
	Stalled
	// Completed: every stage occurred in order.
	Completed
)

// Instance is the monitored progress of one person through one pathway.
type Instance struct {
	// Pathway names the declaration this instance follows.
	Pathway string
	// PersonID is the data subject.
	PersonID string
	// StartedAt is the occurrence time of the triggering event.
	StartedAt time.Time
	// NextStage indexes the awaited stage in the declaration (== number
	// of completed stages).
	NextStage int
	// LastEventAt is the occurrence time of the latest counted event.
	LastEventAt time.Time
	// CompletedAt is set when the instance completes.
	CompletedAt time.Time
	// Deadline is when the awaited stage stalls (zero: no deadline).
	Deadline time.Time
	// Events are the global ids of the counted events, trigger first.
	Events []event.GlobalID
}

// StateAt classifies the instance at the given instant.
func (i *Instance) StateAt(now time.Time) State {
	if !i.CompletedAt.IsZero() {
		return Completed
	}
	if !i.Deadline.IsZero() && now.After(i.Deadline) {
		return Stalled
	}
	return Active
}
