package process

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/event"
)

// Monitor tracks pathway instances from notification messages. It is
// transport-agnostic: feed it notifications from controller
// subscriptions, index inquiries, or replays. Safe for concurrent use.
//
// Semantics: a trigger event opens a new instance for its person unless
// one is already open (re-triggering while active is counted into the
// open instance only if the trigger class is also the awaited stage).
// An event advances an instance exactly when its class matches the
// awaited stage; out-of-order or unrelated events are counted but do not
// advance (the paper's monitoring is observational, not prescriptive).
type Monitor struct {
	mu        sync.Mutex
	pathways  map[string]*Pathway
	instances map[instanceKey]*Instance
	closedOut []*Instance // completed instances, in completion order

	unrelated uint64 // events that matched no pathway activity
}

type instanceKey struct {
	pathway string
	person  string
}

// NewMonitor creates a monitor for the given pathway declarations.
func NewMonitor(pathways ...*Pathway) (*Monitor, error) {
	m := &Monitor{
		pathways:  make(map[string]*Pathway),
		instances: make(map[instanceKey]*Instance),
	}
	for _, p := range pathways {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if _, dup := m.pathways[p.Name]; dup {
			return nil, fmt.Errorf("process: duplicate pathway %q", p.Name)
		}
		cp := *p
		cp.Stages = append([]Stage(nil), p.Stages...)
		m.pathways[p.Name] = &cp
	}
	if len(m.pathways) == 0 {
		return nil, errors.New("process: no pathways")
	}
	return m, nil
}

// Observe feeds one notification into the monitor.
func (m *Monitor) Observe(n *event.Notification) {
	m.mu.Lock()
	defer m.mu.Unlock()
	touched := false
	for _, p := range m.pathways {
		if m.observeFor(p, n) {
			touched = true
		}
	}
	if !touched {
		m.unrelated++
	}
}

// observeFor applies one notification to one pathway; reports whether it
// affected (opened or advanced) an instance.
func (m *Monitor) observeFor(p *Pathway, n *event.Notification) bool {
	k := instanceKey{p.Name, n.PersonID}
	inst := m.instances[k]

	// Advance an open instance when the event matches the awaited stage.
	if inst != nil {
		stage := p.Stages[inst.NextStage]
		if n.Class != stage.Class {
			return false
		}
		inst.NextStage++
		inst.LastEventAt = n.OccurredAt
		inst.Events = append(inst.Events, n.ID)
		if inst.NextStage == len(p.Stages) {
			inst.CompletedAt = n.OccurredAt
			inst.Deadline = time.Time{}
			m.closedOut = append(m.closedOut, inst)
			delete(m.instances, k)
		} else {
			inst.Deadline = deadlineFor(p.Stages[inst.NextStage], n.OccurredAt)
		}
		return true
	}

	// Open a new instance on the trigger.
	if n.Class != p.Trigger {
		return false
	}
	inst = &Instance{
		Pathway:     p.Name,
		PersonID:    n.PersonID,
		StartedAt:   n.OccurredAt,
		LastEventAt: n.OccurredAt,
		Deadline:    deadlineFor(p.Stages[0], n.OccurredAt),
		Events:      []event.GlobalID{n.ID},
	}
	m.instances[k] = inst
	return true
}

func deadlineFor(s Stage, from time.Time) time.Time {
	if s.Within == 0 {
		return time.Time{}
	}
	return from.Add(s.Within)
}

// Report is a snapshot of the monitor at an instant.
type Report struct {
	At        time.Time
	Active    []Instance
	Stalled   []Instance
	Completed []Instance
	// Unrelated counts observed events that matched no pathway.
	Unrelated uint64
}

// Snapshot classifies every instance at the given instant. Instances are
// sorted by person then pathway for stable reports.
func (m *Monitor) Snapshot(now time.Time) Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := Report{At: now, Unrelated: m.unrelated}
	for _, inst := range m.instances {
		cp := *inst
		cp.Events = append([]event.GlobalID(nil), inst.Events...)
		switch inst.StateAt(now) {
		case Stalled:
			r.Stalled = append(r.Stalled, cp)
		default:
			r.Active = append(r.Active, cp)
		}
	}
	for _, inst := range m.closedOut {
		cp := *inst
		cp.Events = append([]event.GlobalID(nil), inst.Events...)
		r.Completed = append(r.Completed, cp)
	}
	for _, list := range [][]Instance{r.Active, r.Stalled, r.Completed} {
		sort.Slice(list, func(i, j int) bool {
			if list[i].PersonID != list[j].PersonID {
				return list[i].PersonID < list[j].PersonID
			}
			return list[i].Pathway < list[j].Pathway
		})
	}
	return r
}
