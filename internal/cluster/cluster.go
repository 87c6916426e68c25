// Package cluster partitions the data controller horizontally: N
// controller shards each own a slice of the person-pseudonym space,
// assigned by consistent hashing over a versioned vnode ring. The
// events index, the bus routing and the audit chain of a person's
// events all live on the shard that owns their pseudonym, so every
// publish touches exactly one shard and the single-node publish path
// is preserved per shard. Each shard mints only event ids the same
// ring assigns to it, so an event id names its shard too.
//
// The package is deliberately low-level: it knows nothing about the
// controller or the transport. It provides
//
//   - the versioned shard map (ring layout + binary frame codec),
//   - the typed routing errors (ErrWrongShard with the owner hint,
//     ErrNotPrimary for a write that reached a replica), and
//   - the scatter-gather engine for cross-shard inquiries (stable
//     merge, typed partial results).
//
// A fleet keeps the map it booted with; only a failover's
// promoted-replica successor (WithPromotedReplica) replaces it, and
// that keeps every shard's key range. No path moves a person's events
// between shards.
//
// Higher layers compose it: internal/core enforces ownership on the
// publish path, internal/registry serves the map, internal/transport
// routes by it and honors the redirects.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// ShardID identifies one controller shard. IDs are small dense
// integers assigned by the operator; they never change across map
// versions.
type ShardID int

// String renders the id for labels and log lines.
func (id ShardID) String() string { return "shard-" + strconv.Itoa(int(id)) }

// ShardInfo names one shard and where to reach it. Only in-process rigs
// fill Replicas and call WithPromotedReplica, the one place Epoch
// moves; no daemon sets either, so a booted fleet's map carries them
// empty and zero. Epoch is not what fences a deposed primary: followers
// fence on their replication node's durable epoch
// (internal/replication, epoch.go), never on this field. Both fields
// stay because they are part of the shard-map wire frame.
type ShardInfo struct {
	ID   ShardID
	Addr string // base URL of the shard's primary web-service binding
	// Replicas are base URLs of the shard's standby replicas (may be
	// empty); a client asks them for a newer map when the primary stops
	// answering.
	Replicas []string
	// Epoch counts the promotions WithPromotedReplica has applied to
	// this entry (zero in every daemon-booted map).
	Epoch uint64
}

// equalInfo compares two entries field-wise (ShardInfo holds a slice,
// so == does not apply).
func equalInfo(a, b ShardInfo) bool {
	if a.ID != b.ID || a.Addr != b.Addr || a.Epoch != b.Epoch || len(a.Replicas) != len(b.Replicas) {
		return false
	}
	for i := range a.Replicas {
		if a.Replicas[i] != b.Replicas[i] {
			return false
		}
	}
	return true
}

// DefaultVNodes is the number of virtual nodes each shard contributes
// to the ring. 64 vnodes keep the max/mean key imbalance under ~1.25
// for small clusters while the ring stays tiny (N*64 points).
const DefaultVNodes = 64

// ErrWrongShard is the sentinel identity of WrongShardError: a request
// landed on a shard that does not own the person key. errors.Is works
// locally and across the wire (transport maps it to a fault code).
var ErrWrongShard = errors.New("cluster: wrong shard for key")

// ErrStaleMap reports an attempt to install a shard map whose version
// is not newer than the one already held.
var ErrStaleMap = errors.New("cluster: stale shard map version")

// WrongShardError carries the redirect hint: which shard owns the key
// and under which map version, so the client refreshes its cached map
// when it is behind and retries at the owner.
type WrongShardError struct {
	Owner   ShardID
	Version uint64
}

// Error implements the error interface.
func (e *WrongShardError) Error() string {
	return "cluster: wrong shard for key (owner " + e.Owner.String() +
		", map v" + strconv.FormatUint(e.Version, 10) + ")"
}

// Is makes errors.Is(err, ErrWrongShard) match the typed redirect.
func (e *WrongShardError) Is(target error) bool { return target == ErrWrongShard }

// Map is a versioned assignment of the pseudonym space to shards: a
// consistent-hash ring of VNodes virtual points per shard. A Map is
// immutable after construction (a failover derives its successor with
// WithPromotedReplica); methods are safe for concurrent use.
type Map struct {
	version uint64
	vnodes  int
	shards  []ShardInfo // sorted by ID

	ring []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard ShardID
}

// NewMap builds a shard map. vnodes <= 0 means DefaultVNodes. Shard
// IDs must be unique and non-negative; at least one shard is required.
func NewMap(version uint64, vnodes int, shards []ShardInfo) (*Map, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: shard map needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := make([]ShardInfo, len(shards))
	copy(sorted, shards)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, s := range sorted {
		if s.ID < 0 {
			return nil, fmt.Errorf("cluster: negative shard id %d", s.ID)
		}
		if i > 0 && sorted[i-1].ID == s.ID {
			return nil, fmt.Errorf("cluster: duplicate shard id %d", s.ID)
		}
	}
	m := &Map{version: version, vnodes: vnodes, shards: sorted}
	m.buildRing()
	return m, nil
}

// buildRing places vnodes points per shard, hashed from the shard id
// and vnode ordinal only — deterministic across processes, so every
// node holding the same (version, vnodes, shard set) computes the
// identical assignment without any coordination.
func (m *Map) buildRing() {
	m.ring = make([]ringPoint, 0, len(m.shards)*m.vnodes)
	for _, s := range m.shards {
		for v := 0; v < m.vnodes; v++ {
			m.ring = append(m.ring, ringPoint{hash: vnodeHash(s.ID, v), shard: s.ID})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		// Hash ties (vanishingly rare) break by shard id so the ring
		// order stays deterministic everywhere.
		return m.ring[i].shard < m.ring[j].shard
	})
}

func vnodeHash(id ShardID, vnode int) uint64 {
	var buf [24]byte
	b := strconv.AppendInt(buf[:0], int64(id), 10)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(vnode), 10)
	return keyHash(b)
}

// keyHash is 64-bit FNV-1a, written out so a key held in a string and
// one held in a byte slice hash alike without a conversion.
func keyHash[K string | []byte](key K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// Version returns the map version. Versions are strictly increasing
// across failovers; a higher version always supersedes a lower one.
func (m *Map) Version() uint64 { return m.version }

// VNodes returns the per-shard virtual node count.
func (m *Map) VNodes() int { return m.vnodes }

// Shards returns the member shards, sorted by ID. The caller must not
// mutate the returned slice.
func (m *Map) Shards() []ShardInfo { return m.shards }

// Shard returns the info for one shard id.
func (m *Map) Shard(id ShardID) (ShardInfo, bool) {
	i := sort.Search(len(m.shards), func(i int) bool { return m.shards[i].ID >= id })
	if i < len(m.shards) && m.shards[i].ID == id {
		return m.shards[i], true
	}
	return ShardInfo{}, false
}

// Owner returns the shard owning a key — a person's pseudonym or an
// event id: the first vnode clockwise of the key's hash on the ring.
func (m *Map) Owner(key string) ShardID { return m.at(keyHash(key)) }

// OwnerBytes is Owner for a key held in a byte slice.
func (m *Map) OwnerBytes(key []byte) ShardID { return m.at(keyHash(key)) }

// at returns the shard of the first vnode at or clockwise of hash h.
func (m *Map) at(h uint64) ShardID {
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0 // wrap around
	}
	return m.ring[i].shard
}

// Equal reports whether two maps describe the identical assignment.
func (m *Map) Equal(o *Map) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.version != o.version || m.vnodes != o.vnodes || len(m.shards) != len(o.shards) {
		return false
	}
	for i := range m.shards {
		if !equalInfo(m.shards[i], o.shards[i]) {
			return false
		}
	}
	return true
}

// ErrNotPrimary is the sentinel identity of NotPrimaryError: a request
// reached a replica (or a deposed primary refusing writes). Like
// ErrWrongShard it survives the wire as a typed fault, and the client
// reacts the same way — refresh the map and retry at the shard's
// current primary.
var ErrNotPrimary = errors.New("cluster: not the primary")

// NotPrimaryError carries the redirect hint for a request that landed
// on a replica: the shard it belongs to and the replica's map version, so
// a client that is behind refreshes before retrying.
type NotPrimaryError struct {
	Shard   ShardID
	Version uint64
}

// Error implements the error interface.
func (e *NotPrimaryError) Error() string {
	return "cluster: not the primary (" + e.Shard.String() +
		", map v" + strconv.FormatUint(e.Version, 10) + ")"
}

// Is makes errors.Is(err, ErrNotPrimary) match the typed redirect.
func (e *NotPrimaryError) Is(target error) bool { return target == ErrNotPrimary }

// WithPromotedReplica derives the successor map a failover installs:
// shard id's primary becomes promoted (which must be one of its
// replicas), the dead primary's address is dropped, the remaining
// replicas are kept, and the entry's Epoch is bumped by one.
// Exactly one version bump covers the whole transition.
func (m *Map) WithPromotedReplica(id ShardID, promoted string) (*Map, error) {
	cur, ok := m.Shard(id)
	if !ok {
		return nil, fmt.Errorf("cluster: promote: unknown shard %d", id)
	}
	rest := make([]string, 0, len(cur.Replicas))
	found := false
	for _, r := range cur.Replicas {
		if r == promoted {
			found = true
			continue
		}
		rest = append(rest, r)
	}
	if !found {
		return nil, fmt.Errorf("cluster: promote: %s is not a replica of shard %d", promoted, id)
	}
	shards := make([]ShardInfo, len(m.shards))
	copy(shards, m.shards)
	for i := range shards {
		if shards[i].ID == id {
			shards[i] = ShardInfo{ID: id, Addr: promoted, Replicas: rest, Epoch: cur.Epoch + 1}
		}
	}
	return NewMap(m.version+1, m.vnodes, shards)
}
