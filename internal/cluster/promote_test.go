package cluster

import (
	"errors"
	"testing"
)

func replicatedShards() []ShardInfo {
	return []ShardInfo{
		{ID: 0, Addr: "http://p0", Replicas: []string{"http://r0a", "http://r0b"}, Epoch: 3},
		{ID: 1, Addr: "http://p1", Replicas: []string{"http://r1a"}, Epoch: 1},
	}
}

// Follower→primary promotion must bump the map version exactly once and
// the shard's fencing epoch exactly once, in the same derived map.
func TestWithPromotedReplica(t *testing.T) {
	m, err := NewMap(7, 0, replicatedShards())
	if err != nil {
		t.Fatal(err)
	}
	next, err := m.WithPromotedReplica(0, "http://r0b")
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() != 8 {
		t.Fatalf("promotion bumped version %d → %d, want exactly one bump to 8", m.Version(), next.Version())
	}
	s0, _ := next.Shard(0)
	if s0.Addr != "http://r0b" {
		t.Fatalf("promoted primary = %q, want http://r0b", s0.Addr)
	}
	if s0.Epoch != 4 {
		t.Fatalf("promoted epoch = %d, want 4 (exactly one bump)", s0.Epoch)
	}
	if len(s0.Replicas) != 1 || s0.Replicas[0] != "http://r0a" {
		t.Fatalf("surviving replicas = %v, want [http://r0a] (deposed primary dropped)", s0.Replicas)
	}
	// The untouched shard is carried over unchanged.
	s1, _ := next.Shard(1)
	if !equalInfo(s1, replicatedShards()[1]) {
		t.Fatalf("shard 1 changed across promotion: %+v", s1)
	}
	// Ownership hashes over the shard count, not addresses: it must not move.
	for _, key := range []string{"alpha", "beta", "gamma", "delta"} {
		if m.Owner(key) != next.Owner(key) {
			t.Fatalf("promotion moved ownership of %q: %v → %v", key, m.Owner(key), next.Owner(key))
		}
	}

	if _, err := m.WithPromotedReplica(9, "http://r0a"); err == nil {
		t.Fatal("promotion on unknown shard succeeded")
	}
	if _, err := m.WithPromotedReplica(0, "http://not-a-replica"); err == nil {
		t.Fatal("promotion of a non-replica succeeded")
	}
}

// The promoted map survives the wire: replicas and epochs round-trip
// through the binary shard-map frame.
func TestPromotedMapFrameRoundTrip(t *testing.T) {
	m, err := NewMap(7, 0, replicatedShards())
	if err != nil {
		t.Fatal(err)
	}
	next, err := m.WithPromotedReplica(0, "http://r0a")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMapFrame(next.EncodeFrame())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(next) {
		t.Fatalf("frame round-trip changed promoted map:\n got %+v\nwant %+v", got.Shards(), next.Shards())
	}
	s0, _ := got.Shard(0)
	if s0.Epoch != 4 || s0.Addr != "http://r0a" {
		t.Fatalf("decoded shard 0 = %+v", s0)
	}
}

func TestNotPrimaryError(t *testing.T) {
	err := error(&NotPrimaryError{Shard: 2, Version: 9})
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatal("NotPrimaryError does not match ErrNotPrimary")
	}
	var np *NotPrimaryError
	if !errors.As(err, &np) || np.Shard != 2 || np.Version != 9 {
		t.Fatalf("errors.As lost the redirect hint: %+v", np)
	}
}
