// Package gateway implements the Local Cooperation Gateway installed at
// each data producer (paper §4): it persists every detail message the
// source notifies "so that they can be retrieved even when the source
// systems are un-accessible" — requests for details "may arrive to the
// data controller even months after the publication of the notification"
// — and it executes the producer-side half of enforcement, Algorithm 2:
//
//	getResponse(src_eID, F):
//	  1. retrieve the event details from the internal events repository;
//	  2. parse the details to filter out the values of the fields that
//	     are not allowed, producing the privacy-aware event.
//
// Only data accessible to the consumer ever leaves the producer.
package gateway

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/schema"
	"repro/internal/store"
)

// Errors reported by the gateway.
var (
	ErrNotFound      = errors.New("gateway: event details not found")
	ErrWrongProducer = errors.New("gateway: detail belongs to another producer")
	ErrNoFields      = errors.New("gateway: empty authorized field set")
)

// SchemaSource resolves the schema of an event class; the gateway uses it
// to validate details before persisting them. The event catalog satisfies
// this.
type SchemaSource interface {
	Schema(event.ClassID) (*schema.Schema, error)
}

// Gateway is one producer's local cooperation gateway. Safe for
// concurrent use; durable when backed by a persistent store. Every
// GetResponse reads the persisted detail from the store and decodes it.
type Gateway struct {
	producer event.ProducerID
	st       *store.Store
	schemas  SchemaSource

	stored    atomic.Uint64
	served    atomic.Uint64
	bytesOut  atomic.Uint64 // payload bytes released (values of authorized fields)
	bytesHeld atomic.Uint64 // payload bytes withheld by filtering
}

// New creates a gateway for producer backed by st. schemas may be nil to
// skip validation (used by baselines only).
func New(producer event.ProducerID, st *store.Store, schemas SchemaSource) (*Gateway, error) {
	if producer == "" {
		return nil, errors.New("gateway: empty producer id")
	}
	if st == nil {
		return nil, errors.New("gateway: nil store")
	}
	return &Gateway{producer: producer, st: st, schemas: schemas}, nil
}

// Producer returns the owning producer.
func (g *Gateway) Producer() event.ProducerID { return g.producer }

// Persist stores a full detail message produced by the source system.
// The detail is validated against its class schema (when a schema source
// is configured) and must belong to this gateway's producer.
func (g *Gateway) Persist(d *event.Detail) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Producer != g.producer {
		return fmt.Errorf("%w: %s", ErrWrongProducer, d.Producer)
	}
	if g.schemas != nil {
		s, err := g.schemas.Schema(d.Class)
		if err != nil {
			return fmt.Errorf("gateway: unknown class %s: %w", d.Class, err)
		}
		if err := s.Validate(d); err != nil {
			return err
		}
	}
	data, err := event.EncodeDetail(d)
	if err != nil {
		return fmt.Errorf("gateway: encode: %w", err)
	}
	if err := g.st.Put(detailKey(d.SourceID), data); err != nil {
		return err
	}
	g.stored.Add(1)
	return nil
}

// Has reports whether details for the source id are persisted.
func (g *Gateway) Has(src event.SourceID) (bool, error) {
	return g.st.Has(detailKey(src))
}

// load retrieves and decodes the full persisted detail. Unexported: full
// details never cross the package boundary unfiltered — GetResponse is
// the only exit path, mirroring the paper's guarantee that "it is never
// the case that data not accessible by a certain data consumer leaves
// the data producer".
func (g *Gateway) load(src event.SourceID) (*event.Detail, error) {
	var d *event.Detail
	err := g.st.View(func(tx store.Tx) error {
		v, ok := tx.Get(detailKey(src))
		if !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, src)
		}
		var err error
		d, err = event.DecodeDetail(v)
		return err
	})
	return d, err
}

// GetResponse is Algorithm 2: retrieve the details of src and return the
// privacy-aware event containing only the authorized fields. An empty
// authorized set is rejected (fail closed): the PEP should never have
// permitted such a request.
func (g *Gateway) GetResponse(src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	if len(fields) == 0 {
		return nil, ErrNoFields
	}
	d, err := g.load(src)
	if err != nil {
		return nil, err
	}
	filtered := d.Filter(fields)
	var out, held uint64
	for name, v := range d.Fields {
		if _, kept := filtered.Fields[name]; kept {
			out += uint64(len(v))
		} else {
			held += uint64(len(v))
		}
	}
	g.served.Add(1)
	g.bytesOut.Add(out)
	g.bytesHeld.Add(held)
	return filtered, nil
}

// Len returns the number of persisted detail messages, counting keys.
func (g *Gateway) Len() (int, error) {
	n := 0
	err := g.st.View(func(tx store.Tx) error {
		tx.AscendKeys("dt/", "", func(string) bool {
			n++
			return true
		})
		return nil
	})
	return n, err
}

// Stats reports cumulative gateway counters, used by the exposure
// experiments (E4).
type Stats struct {
	Stored        uint64 // details persisted
	Served        uint64 // detail responses released
	BytesReleased uint64 // field-value bytes released to consumers
	BytesWithheld uint64 // field-value bytes filtered out before release
}

// Stats returns a snapshot of the counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Stored:        g.stored.Load(),
		Served:        g.served.Load(),
		BytesReleased: g.bytesOut.Load(),
		BytesWithheld: g.bytesHeld.Load(),
	}
}

func detailKey(src event.SourceID) string { return "dt/" + string(src) }
