// Package registry implements the event catalog of the CSS platform —
// the role the paper assigns to an ebXML registry (§3-§4): the catalog of
// all event classes the data producers can generate, "visible to any
// candidate data consumer that has previously signed a contract with the
// data controller", together with the registration of the participating
// producers and consumers themselves.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/schema"
)

// Errors reported by the registry.
var (
	ErrNotFound   = errors.New("registry: not found")
	ErrNotMember  = errors.New("registry: not a platform member")
	ErrDuplicate  = errors.New("registry: already registered")
	ErrNotOwner   = errors.New("registry: class owned by another producer")
	ErrStaleClass = errors.New("registry: schema version not newer than the declared one")
)

// Producer is a data source that signed a cooperation contract with the
// data controller.
type Producer struct {
	ID       event.ProducerID
	Name     string
	JoinedAt time.Time
}

// Consumer is a data consumer organization admitted to the platform.
type Consumer struct {
	Actor    event.Actor
	Name     string
	JoinedAt time.Time
}

// Declaration records that a producer can generate a class of events with
// a given schema ("The data producer declares the ability to generate a
// certain type of event ... The structure of the event is specified by an
// XSD that is 'installed' in an event catalog module", §5).
type Declaration struct {
	Class      event.ClassID
	Producer   event.ProducerID
	Schema     *schema.Schema
	DeclaredAt time.Time
}

// Registry is the event catalog plus the membership roster. Safe for
// concurrent use. In a sharded deployment it additionally serves the
// cluster's versioned shard map (shardmap.go) — the registry is the
// component every participant already queries for platform metadata,
// so the map rides the same channel.
type Registry struct {
	mu        sync.RWMutex
	producers map[event.ProducerID]*Producer
	consumers map[event.Actor]*Consumer
	classes   map[event.ClassID]*Declaration

	shardMap atomic.Pointer[cluster.Map]
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		producers: make(map[event.ProducerID]*Producer),
		consumers: make(map[event.Actor]*Consumer),
		classes:   make(map[event.ClassID]*Declaration),
	}
}

// RegisterProducer admits a data source to the platform.
func (r *Registry) RegisterProducer(id event.ProducerID, name string) error {
	if id == "" {
		return errors.New("registry: empty producer id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.producers[id]; dup {
		return fmt.Errorf("%w: producer %s", ErrDuplicate, id)
	}
	r.producers[id] = &Producer{ID: id, Name: name, JoinedAt: time.Now()}
	return nil
}

// RegisterConsumer admits a consumer organization to the platform.
// Registering an organization admits all of its departments.
func (r *Registry) RegisterConsumer(actor event.Actor, name string) error {
	if err := actor.Validate(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.consumers[actor]; dup {
		return fmt.Errorf("%w: consumer %s", ErrDuplicate, actor)
	}
	r.consumers[actor] = &Consumer{Actor: actor, Name: name, JoinedAt: time.Now()}
	return nil
}

// HasProducer reports whether a producer is a member.
func (r *Registry) HasProducer(id event.ProducerID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.producers[id]
	return ok
}

// HasConsumer reports whether an actor is admitted: either registered
// itself or a department of a registered organization.
func (r *Registry) HasConsumer(actor event.Actor) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for registered := range r.consumers {
		if registered.Contains(actor) {
			return true
		}
	}
	return false
}

// DeclareClass installs (or upgrades) an event class declaration. The
// producer must be a member; a class already declared by another producer
// cannot be taken over; re-declaring requires a strictly newer schema
// version.
func (r *Registry) DeclareClass(producer event.ProducerID, s *schema.Schema) error {
	if s == nil {
		return errors.New("registry: nil schema")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.producers[producer]; !ok {
		return fmt.Errorf("%w: producer %s", ErrNotMember, producer)
	}
	if existing, ok := r.classes[s.Class()]; ok {
		if existing.Producer != producer {
			return fmt.Errorf("%w: %s is owned by %s", ErrNotOwner, s.Class(), existing.Producer)
		}
		if s.Version() <= existing.Schema.Version() {
			return fmt.Errorf("%w: %s v%d <= v%d", ErrStaleClass, s.Class(), s.Version(), existing.Schema.Version())
		}
	}
	r.classes[s.Class()] = &Declaration{
		Class:      s.Class(),
		Producer:   producer,
		Schema:     s,
		DeclaredAt: time.Now(),
	}
	return nil
}

// Class returns the declaration of an event class.
func (r *Registry) Class(id event.ClassID) (Declaration, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.classes[id]
	if !ok {
		return Declaration{}, fmt.Errorf("%w: class %s", ErrNotFound, id)
	}
	return *d, nil
}

// Schema returns the schema of an event class.
func (r *Registry) Schema(id event.ClassID) (*schema.Schema, error) {
	d, err := r.Class(id)
	if err != nil {
		return nil, err
	}
	return d.Schema, nil
}

// Classes returns every declaration, sorted by class id.
func (r *Registry) Classes() []Declaration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Declaration, 0, len(r.classes))
	for _, d := range r.classes {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// Producers returns all registered producers, sorted by id.
func (r *Registry) Producers() []Producer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Producer, 0, len(r.producers))
	for _, p := range r.producers {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Consumers returns all registered consumers, sorted by actor.
func (r *Registry) Consumers() []Consumer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Consumer, 0, len(r.consumers))
	for _, c := range r.consumers {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Actor < out[j].Actor })
	return out
}
