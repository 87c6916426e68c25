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

	"repro/internal/cache"
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

// CacheObserver receives the outcome of one decoded-detail cache lookup
// ("gateway.detail"). Alias form so wiring code can duck-type
// SetCacheObserver across packages.
type CacheObserver = func(cache string, hit bool)

// detailCacheSize bounds the decoded-detail read cache.
const detailCacheSize = 1024

// Gateway is one producer's local cooperation gateway. Safe for
// concurrent use; durable when backed by a persistent store.
//
// A bounded LRU of decoded details fronts the store, so repeated
// GetResponse calls for a hot event skip the per-request decode and pay
// only the field filtering. Caching full details HERE is legal where it
// would not be at the data controller: the gateway runs at the data
// producer, so the cached copy never leaves the owner's control (the E13
// ablation documents why the controller must not hold one). Entries are
// filled inside a store read transaction and deleted after every Persist
// of the same source id, so a re-persisted detail is never served stale.
type Gateway struct {
	producer event.ProducerID
	st       *store.Store
	schemas  SchemaSource

	details *cache.LRU[event.SourceID, *event.Detail]
	obs     atomic.Pointer[CacheObserver]

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
	return &Gateway{
		producer: producer,
		st:       st,
		schemas:  schemas,
		details:  cache.NewLRU[event.SourceID, *event.Detail](detailCacheSize),
	}, nil
}

// SetCacheObserver installs the cache hit/miss observer (nil disables).
func (g *Gateway) SetCacheObserver(o CacheObserver) {
	if o == nil {
		g.obs.Store(nil)
		return
	}
	g.obs.Store(&o)
}

func (g *Gateway) noteCache(cache string, hit bool) {
	if o := g.obs.Load(); o != nil {
		(*o)(cache, hit)
	}
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
	// Invalidate after the write commits; readers fill only under the
	// store's read lock, so no stale decode can outlive this delete.
	g.details.Delete(d.SourceID)
	g.stored.Add(1)
	return nil
}

// Has reports whether details for the source id are persisted.
func (g *Gateway) Has(src event.SourceID) (bool, error) {
	return g.st.Has(detailKey(src))
}

// load retrieves the full persisted detail through the decoded-detail
// cache. Unexported: full details never cross the package boundary
// unfiltered — GetResponse is the only exit path, mirroring the paper's
// guarantee that "it is never the case that data not accessible by a
// certain data consumer leaves the data producer". The returned detail
// may be cache-shared: callers read it (Filter copies) but never mutate.
func (g *Gateway) load(src event.SourceID) (*event.Detail, error) {
	if d, ok := g.details.Get(src); ok {
		g.noteCache("gateway.detail", true)
		return d, nil
	}
	g.noteCache("gateway.detail", false)
	var d *event.Detail
	err := g.st.View(func(tx store.Tx) error {
		v, ok := tx.Get(detailKey(src))
		if !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, src)
		}
		// The fill happens inside the read transaction so it is ordered
		// before any later Persist of this source id.
		var derr error
		d, derr = event.DecodeDetail(v)
		if derr == nil {
			g.details.Put(src, d)
		}
		return derr
	})
	if err != nil {
		return nil, err
	}
	return d, nil
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
