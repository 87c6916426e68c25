// Package cluster partitions the data controller horizontally: N
// controller shards, numbered 0..N-1, each own a slice of the
// person-pseudonym space. A key's owner is the high bits of its 64-bit
// FNV-1a hash scaled over N, so every node holding the same shard count
// computes the same assignment without coordinating. The events index,
// the bus routing and the audit chain of a person's events all live on
// the shard that owns their pseudonym, so every publish touches exactly
// one shard and the single-node publish path is preserved per shard.
// Each shard mints only event ids the same hash assigns to it, so an
// event id names its shard too.
//
// The package is deliberately low-level: it knows nothing about the
// controller or the transport. It provides
//
//   - the versioned shard map (owner hash + binary frame codec),
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
	"math/bits"
	"slices"
	"strconv"
)

// ShardID identifies one controller shard. IDs are dense, 0..N-1 for
// a map of N shards; they never change across map versions.
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

// Map is a versioned assignment of the pseudonym space to shards
// 0..N-1. A Map is immutable after construction (a failover derives
// its successor with WithPromotedReplica); methods are safe for
// concurrent use.
type Map struct {
	version uint64
	shards  []ShardInfo // shards[i].ID == i
}

// NewMap builds a shard map over shards whose ids are exactly 0..N-1,
// given in any order; at least one shard is required. vnodes stays in
// the signature for callers written against the earlier vnode ring and
// must be 0.
func NewMap(version uint64, vnodes int, shards []ShardInfo) (*Map, error) {
	if vnodes != 0 {
		return nil, fmt.Errorf("cluster: vnodes %d: the shard map has no ring, pass 0", vnodes)
	}
	if len(shards) == 0 {
		return nil, errors.New("cluster: shard map needs at least one shard")
	}
	dense := make([]ShardInfo, len(shards))
	seen := make([]bool, len(shards))
	for _, s := range shards {
		if s.ID < 0 || int(s.ID) >= len(shards) || seen[s.ID] {
			return nil, fmt.Errorf("cluster: shard id %d: ids must be 0..%d, each once", s.ID, len(shards)-1)
		}
		dense[s.ID], seen[s.ID] = s, true
	}
	return &Map{version: version, shards: dense}, nil
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

// Shards returns the member shards, sorted by ID. The caller must not
// mutate the returned slice.
func (m *Map) Shards() []ShardInfo { return m.shards }

// Shard returns the info for one shard id; an id off the wire may be
// anything, so one outside 0..N-1 reports false.
func (m *Map) Shard(id ShardID) (ShardInfo, bool) {
	if id < 0 || int(id) >= len(m.shards) {
		return ShardInfo{}, false
	}
	return m.shards[id], true
}

// Owner returns the shard owning a key — a person's pseudonym or an
// event id: the key's hash scaled over the N shards by its high bits,
// the high word of hash*N. hash % N would read the low bits, and
// FNV-1a's low k bits depend only on the low k bits of each key byte.
func (m *Map) Owner(key string) ShardID {
	hi, _ := bits.Mul64(keyHash(key), uint64(len(m.shards)))
	return ShardID(hi)
}

// OwnerBytes is Owner for a key held in a byte slice.
func (m *Map) OwnerBytes(key []byte) ShardID {
	hi, _ := bits.Mul64(keyHash(key), uint64(len(m.shards)))
	return ShardID(hi)
}

// Equal reports whether two maps describe the identical assignment.
func (m *Map) Equal(o *Map) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.version != o.version || len(m.shards) != len(o.shards) {
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
	shards := slices.Clone(m.shards)
	shards[id] = ShardInfo{ID: id, Addr: promoted, Replicas: rest, Epoch: cur.Epoch + 1}
	return NewMap(m.version+1, 0, shards)
}
