// Package idmap maintains the mapping between the controller-assigned
// global event identifiers and the producer-local ones. It backs the PIP
// lookup of Algorithm 1 step 1: "the event identifier distributed in the
// notification messages (eID) is a global artificial identifier generated
// by the data controller to identify the events independently from their
// data producers", so resolving a detail request starts by mapping the
// global eID back to the producer and its local src_eID.
package idmap

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/event"
	"repro/internal/store"
)

// ErrNotFound reports an unknown global identifier.
var ErrNotFound = errors.New("idmap: not found")

// Mapping ties a global event ID to its origin.
type Mapping struct {
	Global   event.GlobalID
	Producer event.ProducerID
	Source   event.SourceID
	Class    event.ClassID
}

// Map assigns and resolves global event identifiers. It is safe for
// concurrent use (the underlying store serializes access) and durable
// when backed by a persistent store.
type Map struct {
	mu sync.Mutex // serializes Assign's check-then-mint
	st *store.Store

	// owns, when set, accepts the ids Assign may mint (see Restrict).
	owns func(id []byte) bool
	// draw holds the id being minted, so an id owns refuses is
	// discarded without a conversion. Guarded by mu.
	draw [4 + 32]byte
}

// New creates a Map backed by st. The map uses the key prefixes "g/"
// (global → origin) and "r/" (origin → global) within the store.
func New(st *store.Store) *Map {
	return &Map{st: st}
}

// Assign generates a fresh global identifier for the event identified by
// (producer, source, class) and records the mapping. Assign is
// idempotent: re-registering the same (producer, source) returns the
// previously assigned global ID, so publish retries do not mint
// duplicate events.
func (m *Map) Assign(producer event.ProducerID, source event.SourceID, class event.ClassID) (event.GlobalID, error) {
	if producer == "" || source == "" {
		return "", errors.New("idmap: empty producer or source id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rkey := reverseKey(producer, source)
	if v, ok, err := m.st.Get(rkey); err != nil {
		return "", err
	} else if ok {
		return event.GlobalID(v), nil
	}
	gid, err := m.mint()
	if err != nil {
		return "", err
	}
	// Both directions of the mapping commit as one batch: a single lock
	// acquisition and WAL frame (instead of two, each with its own fsync
	// in SyncEvery mode), and no crash window in which a global id exists
	// without its reverse entry — which would let a publish retry mint a
	// second global id for the same source event.
	b := batchPool.Get().(*store.Batch)
	b.Reset()
	b.PutOwned(globalKey(gid), appendMapping(nil, producer, source, class))
	b.PutOwned(rkey, []byte(gid))
	err = m.st.Apply(b)
	batchPool.Put(b)
	if err != nil {
		return "", err
	}
	return gid, nil
}

// batchPool recycles the batch (and its ops slice) across assignments.
var batchPool = sync.Pool{New: func() any { return new(store.Batch) }}

// Resolve returns the origin of a global identifier.
func (m *Map) Resolve(gid event.GlobalID) (Mapping, error) {
	if gid == "" {
		return Mapping{}, errors.New("idmap: empty global id")
	}
	v, ok, err := m.st.Get(globalKey(gid))
	if err != nil {
		return Mapping{}, err
	}
	if !ok {
		return Mapping{}, fmt.Errorf("%w: %s", ErrNotFound, gid)
	}
	producer, source, class, err := decodeMapping(string(v))
	if err != nil {
		return Mapping{}, err
	}
	return Mapping{Global: gid, Producer: producer, Source: source, Class: class}, nil
}

func globalKey(gid event.GlobalID) string { return "g/" + string(gid) }

func reverseKey(p event.ProducerID, s event.SourceID) string {
	return "r/" + string(p) + "\x00" + string(s)
}

// Restrict makes Assign mint only ids owns accepts. A clustered
// controller passes its shard map's test, so every id it mints names
// its shard; owns must accept some ids, as a shard of the map does
// about one draw in N. owns runs under the map's lock and must not call
// back into the map. Restrict returns the first stored id owns refuses,
// or "" when it refuses none: a store written under another assignment.
func (m *Map) Restrict(owns func(id []byte) bool) (event.GlobalID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.owns = owns
	var foreign event.GlobalID
	err := m.st.View(func(tx store.Tx) error {
		var id []byte
		tx.AscendKeys("g/", "", func(k string) bool {
			id = append(id[:0], k[len("g/"):]...)
			if !owns(id) {
				foreign = event.GlobalID(id)
				return false
			}
			return true
		})
		return nil
	})
	return foreign, err
}

// mint draws 128-bit random identifiers with a readable prefix until
// owns accepts one (the first, when the map is unrestricted). Each draw
// is assembled in m.draw and only the one kept is converted, so a
// discarded draw costs no allocation. Callers hold mu.
func (m *Map) mint() (event.GlobalID, error) {
	m.draw[0], m.draw[1], m.draw[2], m.draw[3] = 'e', 'v', 't', '-'
	for {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", fmt.Errorf("idmap: generate id: %w", err)
		}
		hex.Encode(m.draw[4:], b[:])
		if m.owns == nil || m.owns(m.draw[:]) {
			return event.GlobalID(m.draw[:]), nil
		}
	}
}

// appendMapping packs origin fields with NUL separators (none of the id
// types admits NUL) into one exactly-sized byte slice — the value is
// handed to the store as owned bytes, so building it as a string first
// would just add a conversion copy.
func appendMapping(dst []byte, p event.ProducerID, s event.SourceID, c event.ClassID) []byte {
	if dst == nil {
		dst = make([]byte, 0, len(p)+len(s)+len(c)+2)
	}
	dst = append(dst, p...)
	dst = append(dst, 0)
	dst = append(dst, s...)
	dst = append(dst, 0)
	dst = append(dst, c...)
	return dst
}

func decodeMapping(v string) (event.ProducerID, event.SourceID, event.ClassID, error) {
	parts := strings.SplitN(v, "\x00", 3)
	if len(parts) != 3 {
		return "", "", "", errors.New("idmap: corrupt mapping record")
	}
	return event.ProducerID(parts[0]), event.SourceID(parts[1]), event.ClassID(parts[2]), nil
}
