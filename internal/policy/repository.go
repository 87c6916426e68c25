package policy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/event"
)

// ErrNotFound reports a missing policy.
var ErrNotFound = errors.New("policy: not found")

// Repository is the certified store of privacy policies held by the data
// controller (§5: "The data controller acts as guarantor and as
// certificated repository of the privacy policies"). It is safe for
// concurrent use.
type Repository struct {
	mu      sync.RWMutex
	byID    map[ID]*Policy
	byClass map[event.ClassID][]*Policy
	nextID  int
}

// NewRepository creates an empty repository.
func NewRepository() *Repository {
	return &Repository{
		byID:    make(map[ID]*Policy),
		byClass: make(map[event.ClassID][]*Policy),
	}
}

// Add validates and stores a policy. If the policy has no ID one is
// assigned. The stored copy is returned.
func (r *Repository) Add(p *Policy) (*Policy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := p.Clone()
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.ID == "" {
		// Skip identifiers already in use (e.g. policies reloaded from a
		// persistent store carry their original ids).
		for {
			r.nextID++
			c.ID = ID(fmt.Sprintf("pol-%06d", r.nextID))
			if _, used := r.byID[c.ID]; !used {
				break
			}
		}
	}
	if _, dup := r.byID[c.ID]; dup {
		return nil, fmt.Errorf("policy: duplicate id %q", c.ID)
	}
	if c.CreatedAt.IsZero() {
		c.CreatedAt = time.Now()
	}
	r.byID[c.ID] = c
	r.byClass[c.Class] = append(r.byClass[c.Class], c)
	return c.Clone(), nil
}

// Get returns the policy with the given ID.
func (r *Repository) Get(id ID) (*Policy, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return p.Clone(), nil
}

// Remove deletes the policy with the given ID (revocation).
func (r *Repository) Remove(id ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(r.byID, id)
	list := r.byClass[p.Class]
	for i, q := range list {
		if q.ID == id {
			r.byClass[p.Class] = append(list[:i], list[i+1:]...)
			break
		}
	}
	return nil
}

// Len returns the number of stored policies.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// eachMatch calls fn for every stored policy that matches req by
// Definition 3 — the one scan under Match, MatchFields, MatchID and
// MatchAll. r.mu must be held.
func (r *Repository) eachMatch(req *event.DetailRequest, fn func(*Policy)) {
	for _, p := range r.byClass[req.Class] {
		if p.Matches(req) {
			fn(p)
		}
	}
}

// best returns the policy Match selects, or nil. r.mu must be held.
func (r *Repository) best(req *event.DetailRequest) *Policy {
	var best *Policy
	r.eachMatch(req, func(p *Policy) {
		if best == nil || moreSpecific(p, best) {
			best = p
		}
	})
	return best
}

// MatchFields returns the identifier and field set F of the policy Match
// would select, without copying it: the decision of Algorithm 1, since a
// matched policy grants exactly F. The slice is the stored one, which
// nothing mutates; callers must treat it as read-only.
func (r *Repository) MatchFields(req *event.DetailRequest) (ID, []event.FieldName, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	best := r.best(req)
	if best == nil {
		return "", nil, ErrNotFound
	}
	return best.ID, best.Fields, nil
}

// MatchID returns the identifier of the policy Match would select.
func (r *Repository) MatchID(req *event.DetailRequest) (ID, error) {
	id, _, err := r.MatchFields(req)
	return id, err
}

// OrderForEnforcement returns a copy of the policies sorted by the
// resolution order Match uses: most specific actor first, then newest,
// then lexicographic id. Exporters use it so standalone XACML evaluation
// (first-applicable over the ordered set) agrees with the platform.
func OrderForEnforcement(ps []*Policy) []*Policy {
	out := append([]*Policy(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return moreSpecific(out[i], out[j]) })
	return out
}

// moreSpecific orders policies for Match: deeper actor paths first, then
// newer policies, then lexicographic ID for total determinism.
func moreSpecific(a, b *Policy) bool {
	da, db := strings.Count(string(a.Actor), "/"), strings.Count(string(b.Actor), "/")
	if da != db {
		return da > db
	}
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.After(b.CreatedAt)
	}
	return a.ID < b.ID
}

// AllowsSubscription reports whether some policy authorizes actor to
// receive notifications of class at time now. Per §5.2, "in order to
// subscribe to a class of notification events the data consumer should be
// authorized by the data producer[:] there should be a privacy policy
// regulating the access to the corresponding event details for that
// particular data consumer"; with deny-by-default, no policy means the
// subscription request is rejected. Purpose is not part of subscription
// (notifications carry no sensitive payload), so any purpose qualifies.
func (r *Repository) AllowsSubscription(actor event.Actor, class event.ClassID, now time.Time) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, p := range r.byClass[class] {
		if p.Actor.Contains(actor) && p.ValidAt(now) {
			return true
		}
	}
	return false
}

// ByProducer returns all policies defined by a producer, sorted by ID.
func (r *Repository) ByProducer(prod event.ProducerID) []*Policy {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Policy
	for _, p := range r.byID {
		if p.Producer == prod {
			out = append(out, p.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// All returns every policy, sorted by ID.
func (r *Repository) All() []*Policy {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Policy, 0, len(r.byID))
	for _, p := range r.byID {
		out = append(out, p.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
