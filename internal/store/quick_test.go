package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

// TestQuickRecoveryEquivalence: for a random sequence of puts and
// deletes, a store reopened from its WAL holds exactly the state of a
// reference map.
func TestQuickRecoveryEquivalence(t *testing.T) {
	f := func(seed int64, opCount uint8) bool {
		dir := t.TempDir()
		path := filepath.Join(dir, "q.wal")
		s, err := Open(path, Options{})
		if err != nil {
			return false
		}
		rnd := rand.New(rand.NewSource(seed))
		ref := map[string]string{}
		ops := int(opCount)%200 + 20
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("k%02d", rnd.Intn(30))
			switch rnd.Intn(5) {
			case 0:
				if err := s.Delete(key); err != nil {
					return false
				}
				delete(ref, key)
			default:
				val := fmt.Sprintf("v%06d", rnd.Intn(1_000_000))
				if err := s.Put(key, []byte(val)); err != nil {
					return false
				}
				ref[key] = val
			}
		}
		if err := s.Close(); err != nil {
			return false
		}

		r, err := Open(path, Options{})
		if err != nil {
			return false
		}
		defer r.Close()
		if n, _ := r.Len(); n != len(ref) {
			t.Logf("seed %d: recovered %d keys, want %d", seed, n, len(ref))
			return false
		}
		for k, want := range ref {
			v, ok, err := r.Get(k)
			if err != nil || !ok || string(v) != want {
				t.Logf("seed %d: key %s = %q,%v,%v want %q", seed, k, v, ok, err, want)
				return false
			}
		}
		// Ordered iteration must visit exactly the reference keys, sorted.
		prev := ""
		count := 0
		r.AscendPrefix("", func(k string, v []byte) bool {
			if k <= prev && prev != "" {
				count = -1
				return false
			}
			prev = k
			count++
			return true
		})
		return count == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
