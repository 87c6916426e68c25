package store

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// memList returns a memory list and a Tx reading it the way a View of
// its store does. The list is unmapped when the test ends.
func memList(t *testing.T, seed int64) (*skipList, Tx) {
	l := newSkipList(seed, true)
	t.Cleanup(l.free)
	return l, Tx{list: l, err: new(error)}
}

func TestSkipListBasic(t *testing.T) {
	l, tx := memList(t, 1)
	if _, ok := tx.Get("a"); ok {
		t.Error("get on empty list reported present")
	}
	if existed := l.put("a", []byte("1"), 0); existed {
		t.Error("put of new key reported an overwrite")
	}
	if v, ok := tx.Get("a"); !ok || string(v) != "1" {
		t.Errorf("get = %q, %v", v, ok)
	}
	if existed := l.put("a", []byte("2"), 0); !existed {
		t.Error("overwrite reported a new key")
	}
	if v, ok := tx.Get("a"); !ok || string(v) != "2" {
		t.Errorf("get = %q, %v", v, ok)
	}
	if l.size != 1 {
		t.Errorf("size = %d", l.size)
	}
	if !l.del("a") {
		t.Error("del of present key reported absent")
	}
	if l.del("a") {
		t.Error("double del reported present")
	}
	if l.size != 0 {
		t.Errorf("size after del = %d", l.size)
	}
}

func TestSkipListOrdering(t *testing.T) {
	l, tx := memList(t, 2)
	keys := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for _, k := range keys {
		l.put(k, []byte(k), 0)
	}
	var got []string
	tx.AscendRange("", "", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("visited %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSkipListAscendFrom(t *testing.T) {
	l, tx := memList(t, 3)
	for i := 0; i < 20; i++ {
		l.put(fmt.Sprintf("k%02d", i), nil, 0)
	}
	var got []string
	tx.AscendRange("k15", "", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 5 || got[0] != "k15" {
		t.Errorf("ascend from k15 = %v", got)
	}
	// From a key that doesn't exist: starts at the next larger key.
	got = nil
	tx.AscendRange("k155", "", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 4 || got[0] != "k16" {
		t.Errorf("ascend from k155 = %v", got)
	}
}

func TestSkipListAscendPrefix(t *testing.T) {
	l, tx := memList(t, 4)
	for _, k := range []string{"a", "ab", "abc", "abd", "ac", "b"} {
		l.put(k, nil, 0)
	}
	var got []string
	tx.AscendPrefix("ab", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3 || got[0] != "ab" || got[2] != "abd" {
		t.Errorf("ascendPrefix(ab) = %v", got)
	}
}

// checkAgainstModel compares every read a Tx offers with a plain map:
// size, get of present and absent keys, ascend from each of froms (with
// and without values), and last under each of prefixes.
func checkAgainstModel(t *testing.T, tx Tx, m map[string]string, froms, prefixes []string) {
	t.Helper()
	if tx.list.size != len(m) {
		t.Fatalf("size = %d, model holds %d", tx.list.size, len(m))
	}
	keys := make([]string, 0, len(m))
	for k, want := range m {
		keys = append(keys, k)
		if v, ok := tx.Get(k); !ok || string(v) != want {
			t.Fatalf("get(%q) = %d bytes, %v; model holds %d bytes", k, len(v), ok, len(want))
		}
	}
	sort.Strings(keys)
	for _, from := range froms {
		if _, ok := tx.Get(from); ok != hasKey(m, from) {
			t.Fatalf("get(%q) present = %v, model disagrees", from, ok)
		}
		want := keys[sort.SearchStrings(keys, from):]
		i := 0
		tx.AscendKeys("", from, func(k string) bool {
			if i >= len(want) || k != want[i] {
				t.Fatalf("AscendKeys from %q step %d visited %q", from, i, k)
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("AscendKeys from %q visited %d keys, want %d", from, i, len(want))
		}
		i = 0
		tx.AscendRange(from, "", func(k string, v []byte) bool {
			if i >= len(want) || k != want[i] || string(v) != m[k] {
				t.Fatalf("ascend(%q) step %d visited %q", from, i, k)
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("ascend(%q) visited %d keys, want %d", from, i, len(want))
		}
	}
	for _, prefix := range prefixes {
		wantKey, wantOK := "", false
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) {
				wantKey, wantOK = k, true
			}
		}
		k, v, ok := tx.Last(prefix)
		if ok != wantOK || k != wantKey || string(v) != m[wantKey] {
			t.Fatalf("last(%q) = %q, %v; want %q, %v", prefix, k, ok, wantKey, wantOK)
		}
	}
}

func hasKey(m map[string]string, k string) bool {
	_, ok := m[k]
	return ok
}

// Property: the skip list behaves exactly like a map plus sorting, under
// a random sequence of inserts, overwrites and deletes whose values are
// empty, small or larger than a chunk — and keeps doing so across the
// arena rebuilds that churn forces.
func TestQuickSkipListMatchesMap(t *testing.T) {
	rebuilds := 0
	f := func(seed int64, opsCount uint16) bool {
		r := rand.New(rand.NewSource(seed))
		l, tx := memList(t, seed)
		defer l.free()
		m := map[string]string{}
		ops := int(opsCount%500) + 50
		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("k%02d", r.Intn(40))
			before := l.total
			switch c := r.Intn(200); {
			case c < 100:
				v := fmt.Sprintf("v%d", i)
				l.put(k, []byte(v), 0)
				m[k] = v
			case c < 125:
				l.put(k, nil, 0)
				m[k] = ""
			case c == 125:
				v := strings.Repeat(string(rune('a'+i%26)), chunkSize+r.Intn(100))
				l.put(k, []byte(v), 0)
				m[k] = v
			default:
				if l.del(k) != hasKey(m, k) {
					return false
				}
				delete(m, k)
			}
			if l.total < before {
				rebuilds++
			}
		}
		checkAgainstModel(t, tx, m, []string{"", "k", "k17", "k175", "l"}, []string{"", "k", "k1", "k39", "j", "l"})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if rebuilds < 3 {
		t.Errorf("%d arena rebuilds, want the churn to force at least 3", rebuilds)
	}
}

// arenaBytes is what the list holds on to: every chunk at its full size.
func arenaBytes(l *skipList) int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// TestChurnDoesNotGrow: the outbox's pattern — put a key, delete it —
// leaves dead bytes behind on every round; the rebuild rule must hold
// the arena to a constant however long that goes on.
func TestChurnDoesNotGrow(t *testing.T) {
	l := newSkipList(11, true)
	value := []byte("a parked notification, a few dozen bytes long")
	var keys [100]string
	for i := range keys {
		keys[i] = fmt.Sprintf("q/%020d", i)
	}
	peak := 0
	for i := 0; i < 1_000_000; i++ {
		l.put(keys[i%100], value, 0)
		if i >= 50 {
			l.del(keys[(i-50)%100])
		}
		peak = max(peak, arenaBytes(l))
	}
	if l.size != 50 {
		t.Errorf("size = %d, want the 50 keys not yet deleted", l.size)
	}
	if peak > 3*chunkSize {
		t.Errorf("arena peaked at %d bytes over 1 000 000 put+delete rounds, want at most 3 chunks (%d)", peak, 3*chunkSize)
	}
}

func TestSkipListLargeSequential(t *testing.T) {
	l, tx := memList(t, 7)
	const n = 20000
	for i := 0; i < n; i++ {
		l.put(fmt.Sprintf("key-%08d", i), []byte{byte(i)}, 0)
	}
	if l.size != n {
		t.Fatalf("size = %d, want %d", l.size, n)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		k := fmt.Sprintf("key-%08d", i)
		if v, ok := tx.Get(k); !ok || v[0] != byte(i) {
			t.Errorf("get(%s) = %v, %v", k, v, ok)
		}
	}
	// Delete every other key and verify level shrink doesn't corrupt.
	for i := 0; i < n; i += 2 {
		if !l.del(fmt.Sprintf("key-%08d", i)) {
			t.Fatalf("del(%d) failed", i)
		}
	}
	if l.size != n/2 {
		t.Fatalf("size after deletes = %d", l.size)
	}
	count := 0
	tx.AscendRange("", "", func(k string, v []byte) bool {
		count++
		return true
	})
	if count != n/2 {
		t.Errorf("ascend visited %d, want %d", count, n/2)
	}
}
