package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
)

func testShards(n int) []ShardInfo {
	s := make([]ShardInfo, n)
	for i := range s {
		s[i] = ShardInfo{ID: ShardID(i), Addr: fmt.Sprintf("http://127.0.0.1:%d", 9000+i)}
	}
	return s
}

func TestMapValidation(t *testing.T) {
	if _, err := NewMap(1, 0, nil); err == nil {
		t.Fatal("empty shard set accepted")
	}
	if _, err := NewMap(1, 0, []ShardInfo{{ID: 0}, {ID: 0}}); err == nil {
		t.Fatal("duplicate shard id accepted")
	}
	if _, err := NewMap(1, 0, []ShardInfo{{ID: -1}}); err == nil {
		t.Fatal("negative shard id accepted")
	}
	m, err := NewMap(1, 0, testShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.VNodes() != DefaultVNodes {
		t.Fatalf("vnodes = %d, want default %d", m.VNodes(), DefaultVNodes)
	}
	if _, ok := m.Shard(2); !ok {
		t.Fatal("Shard(2) not found")
	}
	if _, ok := m.Shard(9); ok {
		t.Fatal("Shard(9) found")
	}
}

func TestOwnerDeterministic(t *testing.T) {
	a, err := NewMap(3, 64, testShards(4))
	if err != nil {
		t.Fatal(err)
	}
	// A second map built from the same inputs (different slice order)
	// must agree on every key — nodes never coordinate assignments.
	shuffled := []ShardInfo{testShards(4)[2], testShards(4)[0], testShards(4)[3], testShards(4)[1]}
	b, err := NewMap(3, 64, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("maps from same shard set not equal")
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("pseudonym-%04d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner disagreement for %s", k)
		}
	}
}

// TestKeyHashIsFNV1a pins the ring hash to 64-bit FNV-1a, so the
// assignment of keys, and with it the owner of every stored event id,
// stays the same across builds; and a key answers the same owner as a
// string and as bytes.
func TestKeyHashIsFNV1a(t *testing.T) {
	m, err := NewMap(1, 0, testShards(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "a", "3#17", "evt-00112233445566778899aabbccddeeff", "hmac-pseudonym-000042"} {
		h := fnv.New64a()
		h.Write([]byte(k))
		if got, want := keyHash(k), h.Sum64(); got != want {
			t.Errorf("keyHash(%q) = %x, FNV-1a %x", k, got, want)
		}
		if m.Owner(k) != m.OwnerBytes([]byte(k)) {
			t.Errorf("Owner(%q) and OwnerBytes disagree", k)
		}
	}
}

func TestRingBalance(t *testing.T) {
	m, err := NewMap(1, DefaultVNodes, testShards(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ShardID]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[m.Owner(fmt.Sprintf("hmac-pseudonym-%06d", i))]++
	}
	mean := keys / 4
	for id, c := range counts {
		if c == 0 {
			t.Fatalf("shard %s owns no keys", id)
		}
		if float64(c) > 1.6*float64(mean) || float64(c) < 0.4*float64(mean) {
			t.Fatalf("shard %s owns %d of %d keys — ring badly imbalanced", id, c, keys)
		}
	}
}

func TestWrongShardError(t *testing.T) {
	err := error(&WrongShardError{Owner: 3, Version: 7})
	if !errors.Is(err, ErrWrongShard) {
		t.Fatal("WrongShardError does not match ErrWrongShard")
	}
	var wse *WrongShardError
	if !errors.As(err, &wse) || wse.Owner != 3 || wse.Version != 7 {
		t.Fatalf("errors.As lost details: %+v", wse)
	}
}
