package cluster

import (
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
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
	for name, tc := range map[string]struct {
		vnodes int
		shards []ShardInfo
	}{
		"non-zero vnodes": {64, testShards(2)},
		"empty set":       {0, nil},
		"gap":             {0, []ShardInfo{{ID: 0}, {ID: 2}}},
		"duplicate":       {0, []ShardInfo{{ID: 0}, {ID: 0}}},
		"negative":        {0, []ShardInfo{{ID: -1}, {ID: 0}}},
	} {
		if _, err := NewMap(1, tc.vnodes, tc.shards); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	m, err := NewMap(1, 0, testShards(3))
	if err != nil {
		t.Fatal(err)
	}
	for id := ShardID(-2); id <= 4; id++ {
		s, ok := m.Shard(id)
		if want := id >= 0 && id < 3; ok != want || ok && s.ID != id {
			t.Errorf("Shard(%d) = %+v, %v; want found=%v", id, s, ok, want)
		}
	}
}

func TestOwnerDeterministic(t *testing.T) {
	a, err := NewMap(3, 0, testShards(4))
	if err != nil {
		t.Fatal(err)
	}
	// A second map built from the same inputs (different slice order)
	// must agree on every key — nodes never coordinate assignments.
	shuffled := []ShardInfo{testShards(4)[2], testShards(4)[0], testShards(4)[3], testShards(4)[1]}
	b, err := NewMap(3, 0, shuffled)
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

// TestKeyHashIsFNV1a pins the owner hash to 64-bit FNV-1a, so the
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

// TestOwnerBalance routes keys of the two kinds the map is asked
// about — event ids ("evt-" and 32 hex digits) and person pseudonyms
// (24 base64url characters of an HMAC) — over 2 to 5 shards; the
// busiest shard must hold at most 1.03x the mean share.
func TestOwnerBalance(t *testing.T) {
	const keys = 100_000
	rng := rand.New(rand.NewPCG(44, 1))
	ids, pseudonyms := make([]string, keys), make([]string, keys)
	var raw [18]byte
	for i := range ids {
		for j := range raw {
			raw[j] = byte(rng.Uint32())
		}
		ids[i] = "evt-" + hex.EncodeToString(raw[:16])
		pseudonyms[i] = base64.URLEncoding.EncodeToString(raw[:])
	}
	for n := 2; n <= 5; n++ {
		m, err := NewMap(1, 0, testShards(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []struct {
			name string
			keys []string
		}{{"event id", ids}, {"pseudonym", pseudonyms}} {
			counts := make([]int, n)
			for _, k := range kind.keys {
				counts[m.Owner(k)]++
			}
			busiest := 0
			for _, c := range counts {
				busiest = max(busiest, c)
			}
			share := float64(busiest*n) / keys
			t.Logf("%d shards, %s keys: busiest shard holds %.4fx the mean share", n, kind.name, share)
			if share > 1.03 {
				t.Errorf("%d shards, %s keys: busiest shard holds %.3fx the mean share (counts %v)", n, kind.name, share, counts)
			}
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
