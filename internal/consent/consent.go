// Package consent implements citizen/patient consent collection at data
// source level (paper §1: "achieve patient/citizen empowerment by
// supporting consent collection at data source level (opt-in, opt-out
// options to share the events and their content)", and §7: "The system
// can be used also directly by the citizens to specify and control their
// consent on data exchanges").
//
// A directive is an opt-in (allow) or opt-out (deny) recorded by the data
// subject, scoped by event class, consumer and purpose — each scope field
// optionally left empty to mean "any". The most specific applicable
// directive wins; among equally specific ones, the most recent. With no
// applicable directive, the registry's default applies.
package consent

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/store"
)

// Scope delimits what a directive covers. Empty fields mean "any".
type Scope struct {
	// Class restricts the directive to one event class.
	Class event.ClassID `json:"class,omitempty"`
	// Consumer restricts it to one consumer subtree (hierarchical match).
	Consumer event.Actor `json:"consumer,omitempty"`
	// Purpose restricts it to one purpose of use. Purpose-scoped
	// directives apply only to detail requests, never to notification
	// routing (routing is purpose-agnostic).
	Purpose event.Purpose `json:"purpose,omitempty"`
}

// specificity counts the populated scope fields; deeper consumer paths do
// not increase it (class/consumer/purpose presence is what the citizen
// chose to pin down).
func (s Scope) specificity() int {
	n := 0
	if s.Class != "" {
		n++
	}
	if s.Consumer != "" {
		n++
	}
	if s.Purpose != "" {
		n++
	}
	return n
}

// Directive is one recorded consent decision.
type Directive struct {
	// Seq orders directives of the same person (assigned by Record).
	Seq uint64 `json:"seq"`
	// PersonID is the data subject.
	PersonID string `json:"personId"`
	// Allow is true for opt-in, false for opt-out.
	Allow bool `json:"allow"`
	// Scope delimits the decision.
	Scope Scope `json:"scope"`
	// RecordedAt is when the decision was collected.
	RecordedAt time.Time `json:"recordedAt"`
}

// matches reports whether the directive applies to the query. A
// zero-valued query field means "any" and only matches directives that
// also leave that field unscoped.
func (d *Directive) matches(class event.ClassID, consumer event.Actor, purpose event.Purpose) bool {
	if d.Scope.Class != "" && d.Scope.Class != class {
		return false
	}
	if d.Scope.Consumer != "" && (consumer == "" || !d.Scope.Consumer.Contains(consumer)) {
		return false
	}
	if d.Scope.Purpose != "" && d.Scope.Purpose != purpose {
		return false
	}
	return true
}

// Registry stores directives and answers consent checks. Safe for
// concurrent use; durable when backed by a persistent store.
type Registry struct {
	// DefaultAllow is the decision with no applicable directive. CSS
	// deployments default to true: joining the platform implies baseline
	// consent collected on paper, with opt-outs recorded electronically.
	defaultAllow bool

	mu   sync.RWMutex
	st   *store.Store
	byID map[string][]*Directive // personID → directives in seq order
	seq  uint64
}

// Open creates a registry on st, recovering persisted directives. Keys
// use the "d/" prefix.
func Open(st *store.Store, defaultAllow bool) (*Registry, error) {
	r := &Registry{defaultAllow: defaultAllow, st: st, byID: make(map[string][]*Directive)}
	var derr error
	err := st.AscendPrefix("d/", func(k string, v []byte) bool {
		var d Directive
		if err := json.Unmarshal(v, &d); err != nil {
			derr = fmt.Errorf("consent: corrupt directive %s: %w", k, err)
			return false
		}
		r.byID[d.PersonID] = append(r.byID[d.PersonID], &d)
		if d.Seq > r.seq {
			r.seq = d.Seq
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if derr != nil {
		return nil, derr
	}
	return r, nil
}

// Reload replaces the in-memory view with a fresh scan of the persisted
// directives. A replica calls this when it is promoted, so directives
// recorded on the old primary and replicated since boot govern the new
// primary's filtering from its first flow.
func (r *Registry) Reload() error {
	byID := make(map[string][]*Directive)
	var seq uint64
	var derr error
	err := r.st.AscendPrefix("d/", func(k string, v []byte) bool {
		var d Directive
		if err := json.Unmarshal(v, &d); err != nil {
			derr = fmt.Errorf("consent: corrupt directive %s: %w", k, err)
			return false
		}
		byID[d.PersonID] = append(byID[d.PersonID], &d)
		if d.Seq > seq {
			seq = d.Seq
		}
		return true
	})
	if err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	r.mu.Lock()
	r.byID = byID
	r.seq = seq
	r.mu.Unlock()
	return nil
}

// Record stores a directive. Seq and RecordedAt are assigned if unset.
func (r *Registry) Record(d Directive) (Directive, error) {
	if d.PersonID == "" {
		return Directive{}, errors.New("consent: directive without person id")
	}
	if d.Scope.Class != "" {
		if err := d.Scope.Class.Validate(); err != nil {
			return Directive{}, fmt.Errorf("consent: %w", err)
		}
	}
	if d.Scope.Consumer != "" {
		if err := d.Scope.Consumer.Validate(); err != nil {
			return Directive{}, fmt.Errorf("consent: %w", err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	d.Seq = r.seq
	if d.RecordedAt.IsZero() {
		d.RecordedAt = time.Now()
	}
	data, err := json.Marshal(&d)
	if err != nil {
		return Directive{}, fmt.Errorf("consent: encode: %w", err)
	}
	if err := r.st.Put(fmt.Sprintf("d/%020d", d.Seq), data); err != nil {
		return Directive{}, err
	}
	stored := d
	r.byID[d.PersonID] = append(r.byID[d.PersonID], &stored)
	return stored, nil
}

// Allows answers a consent check: may data about person flow to consumer
// for the given class and purpose? Pass purpose "" for notification
// routing (purpose-agnostic). The most specific applicable directive
// wins; ties go to the most recently recorded one; with none, the
// registry default applies.
func (r *Registry) Allows(personID string, class event.ClassID, consumer event.Actor, purpose event.Purpose) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best *Directive
	for _, d := range r.byID[personID] {
		if !d.matches(class, consumer, purpose) {
			continue
		}
		if best == nil {
			best = d
			continue
		}
		ds, bs := d.Scope.specificity(), best.Scope.specificity()
		if ds > bs || (ds == bs && d.Seq > best.Seq) {
			best = d
		}
	}
	if best == nil {
		return r.defaultAllow
	}
	return best.Allow
}

// Directives returns the directives of a person in record order.
func (r *Registry) Directives(personID string) []Directive {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Directive, 0, len(r.byID[personID]))
	for _, d := range r.byID[personID] {
		out = append(out, *d)
	}
	return out
}

// Len returns the total number of directives.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, ds := range r.byID {
		n += len(ds)
	}
	return n
}
