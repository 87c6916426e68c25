package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// memTable returns a memory table and a Tx reading it the way a View of
// its store does. The table is unmapped when the test ends.
func memTable(t testing.TB) (*memtable, Tx) {
	m := newMemtable(true)
	t.Cleanup(m.free)
	return m, Tx{table: m, err: new(error)}
}

func TestSkipListBasic(t *testing.T) {
	l, tx := memTable(t)
	if _, ok := tx.Get("a"); ok {
		t.Error("get on empty table reported present")
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
	l, tx := memTable(t)
	keys := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for _, k := range keys {
		l.put(k, []byte(k), 0)
	}
	var got []string
	tx.AscendPrefix("", func(k string, v []byte) bool {
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
	l, tx := memTable(t)
	for i := 0; i < 20; i++ {
		l.put(fmt.Sprintf("k%02d", i), nil, 0)
	}
	var got []string
	tx.AscendKeys("", "k15", func(k string) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 5 || got[0] != "k15" {
		t.Errorf("ascend from k15 = %v", got)
	}
	// From a key that doesn't exist: starts at the next larger key.
	got = nil
	tx.AscendKeys("", "k155", func(k string) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 4 || got[0] != "k16" {
		t.Errorf("ascend from k155 = %v", got)
	}
}

func TestSkipListAscendPrefix(t *testing.T) {
	l, tx := memTable(t)
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

// controllerKeys returns 2 000 keys, enough for four blocks, in the
// orders a controller writes them, interleaved as its publishes
// interleave them: audit sequence numbers ascending under one prefix,
// per-class timestamps ascending under prefixes of their own, one
// producer's source ids ascending and the next one's descending, into
// the gap after the first's, and event ids at random.
func controllerKeys() []string {
	r := rand.New(rand.NewSource(1))
	keys := make([]string, 0, 2000)
	for i := 0; i < 500; i++ {
		source := i
		if i%2 == 1 {
			source = 500 - i
		}
		keys = append(keys,
			fmt.Sprintf("a/%020d", i),
			fmt.Sprintf("c/class-%d/%020d", i%3, i),
			fmt.Sprintf("r/producer-%d\x00lab-%06d", i%2, source),
			fmt.Sprintf("e/evt-%016x", r.Uint64()))
	}
	return keys
}

// prefill writes controllerKeys through put, then through del deletes
// the first key of block 1, so a block's first ref moves, and every key
// of block 2, so a block leaves the directory. m is the table the writes
// land in; the model passed back holds what is left.
func prefill(t testing.TB, m *memtable, put func(k, v string), del func(k string)) map[string]string {
	t.Helper()
	model := map[string]string{}
	for _, k := range controllerKeys() {
		put(k, "v:"+k)
		model[k] = "v:" + k
	}
	blocks := len(m.dir)
	if blocks < 4 {
		t.Fatalf("%d keys filled %d blocks, want at least 4", len(model), blocks)
	}
	doomed := []string{string(nodeKey(m.node(1, 0)))}
	for i := 0; i < m.dir[2].n; i++ {
		doomed = append(doomed, string(nodeKey(m.node(2, i))))
	}
	for _, k := range doomed {
		del(k)
		delete(model, k)
	}
	if len(m.dir) != blocks-1 {
		t.Fatalf("emptying block 2 left %d blocks, want %d", len(m.dir), blocks-1)
	}
	return model
}

// probes returns the keys reads are checked from, beside those an op
// stream wrote: the prefixes controllerKeys writes under and, for every
// block, its first key, the key one byte shorter (just below it), the
// key with a zero byte added (just above it) and its last key.
func probes(m *memtable) []string {
	p := []string{"", "a/", "c/", "c/class-1/", "e/", "r/"}
	for b := range m.dir {
		if n := m.dir[b].n; n > 0 {
			first := string(nodeKey(m.node(b, 0)))
			p = append(p, first, first[:len(first)-1], first+"\x00", string(nodeKey(m.node(b, n-1))))
		}
	}
	return p
}

// checkAgainstModel compares every read a Tx offers with a plain map:
// size and Get of every key; from each of froms, Get and a key walk;
// under each of prefixes, AscendPrefix with values, Last, and AscendKeys
// from every one of froms inside the prefix. froms and prefixes are
// added to probes.
func checkAgainstModel(t *testing.T, what string, tx Tx, m map[string]string, froms, prefixes []string) {
	t.Helper()
	if tx.table.size != len(m) {
		t.Fatalf("%s: size = %d, model holds %d", what, tx.table.size, len(m))
	}
	keys := make([]string, 0, len(m))
	for k, want := range m {
		keys = append(keys, k)
		if v, ok := tx.Get(k); !ok || string(v) != want {
			t.Fatalf("%s: get(%q) = %d bytes, %v; model holds %d bytes", what, k, len(v), ok, len(want))
		}
	}
	sort.Strings(keys)
	// inside returns the keys AscendKeys(prefix, from) must visit.
	inside := func(prefix, from string) []string {
		i := sort.SearchStrings(keys, max(prefix, from))
		j := i
		for j < len(keys) && strings.HasPrefix(keys[j], prefix) {
			j++
		}
		return keys[i:j]
	}
	walkKeys := func(prefix, from string) {
		t.Helper()
		want, i := inside(prefix, from), 0
		tx.AscendKeys(prefix, from, func(k string) bool {
			if i >= len(want) || k != want[i] {
				t.Fatalf("%s: AscendKeys(%q, %q) step %d visited %q", what, prefix, from, i, k)
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("%s: AscendKeys(%q, %q) visited %d keys, want %d", what, prefix, from, i, len(want))
		}
	}
	p := probes(tx.table)
	froms, prefixes = union(froms, p), union(prefixes, p)
	for _, from := range froms {
		if _, ok := tx.Get(from); ok != hasKey(m, from) {
			t.Fatalf("%s: get(%q) present = %v, model disagrees", what, from, ok)
		}
		walkKeys("", from)
	}
	for _, prefix := range prefixes {
		want, i := inside(prefix, ""), 0
		tx.AscendPrefix(prefix, func(k string, v []byte) bool {
			if i >= len(want) || k != want[i] || string(v) != m[k] {
				t.Fatalf("%s: AscendPrefix(%q) step %d visited %q", what, prefix, i, k)
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("%s: AscendPrefix(%q) visited %d keys, want %d", what, prefix, i, len(want))
		}
		wantKey, wantOK := "", len(want) > 0
		if wantOK {
			wantKey = want[len(want)-1]
		}
		k, v, ok := tx.Last(prefix)
		if ok != wantOK || k != wantKey || string(v) != m[wantKey] {
			t.Fatalf("%s: last(%q) = %q, %v; want %q, %v", what, prefix, k, ok, wantKey, wantOK)
		}
		for _, from := range froms {
			if strings.HasPrefix(from, prefix) {
				walkKeys(prefix, from)
			}
		}
	}
}

// union returns the distinct strings of a and b, sorted.
func union(a, b []string) []string {
	u := append(append([]string(nil), a...), b...)
	slices.Sort(u)
	return slices.Compact(u)
}

func hasKey(m map[string]string, k string) bool {
	_, ok := m[k]
	return ok
}

// Property: the table behaves exactly like a map plus sorting, under a
// random sequence of inserts, overwrites and deletes whose values are
// empty, small or larger than a chunk, over the blocks prefill leaves —
// and keeps doing so across the arena rebuilds that churn forces, and
// one more at the end.
func TestQuickSkipListMatchesMap(t *testing.T) {
	rebuilds := 0
	f := func(seed int64, opsCount uint16) bool {
		r := rand.New(rand.NewSource(seed))
		l, tx := memTable(t)
		defer l.free()
		m := prefill(t, l, func(k, v string) { l.put(k, []byte(v), 0) }, func(k string) { l.del(k) })
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
		froms, prefixes := []string{"k", "k17", "k175", "l"}, []string{"k", "k1", "k39", "j", "l"}
		checkAgainstModel(t, "live", tx, m, froms, prefixes)
		l.rebuild()
		checkAgainstModel(t, "rebuilt", tx, m, froms, prefixes)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if rebuilds < 3 {
		t.Errorf("%d arena rebuilds, want the churn to force at least 3", rebuilds)
	}
}

// arenaBytes is what the table holds on to: every chunk at its full size.
func arenaBytes(m *memtable) int {
	n := 0
	for _, c := range m.chunks {
		n += len(c)
	}
	return n
}

// TestChurnDoesNotGrow: the outbox's pattern — put a key, delete it —
// leaves dead bytes behind on every round; the rebuild rule must hold
// the arena to a constant however long that goes on.
func TestChurnDoesNotGrow(t *testing.T) {
	l, _ := memTable(t)
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
	l, tx := memTable(t)
	const n = 20000
	for i := 0; i < n; i++ {
		l.put(fmt.Sprintf("key-%08d", i), []byte{byte(i)}, 0)
	}
	if l.size != n {
		t.Fatalf("size = %d, want %d", l.size, n)
	}
	if full := (n + blockRefs - 1) / blockRefs; len(l.dir) != full {
		t.Errorf("%d ascending keys took %d blocks, want %d full ones", n, len(l.dir), full)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		k := fmt.Sprintf("key-%08d", i)
		if v, ok := tx.Get(k); !ok || v[0] != byte(i) {
			t.Errorf("get(%s) = %v, %v", k, v, ok)
		}
	}
	// Delete every other key and verify the blocks stay consistent.
	for i := 0; i < n; i += 2 {
		if !l.del(fmt.Sprintf("key-%08d", i)) {
			t.Fatalf("del(%d) failed", i)
		}
	}
	if l.size != n/2 {
		t.Fatalf("size after deletes = %d", l.size)
	}
	count := 0
	tx.AscendPrefix("", func(k string, v []byte) bool {
		count++
		return true
	})
	if count != n/2 {
		t.Errorf("ascend visited %d, want %d", count, n/2)
	}
}

// TestDescendingRunStaysCompact: keys that arrive in descending order
// into the gap after a full block — a class's events backfilled newest
// first after another class's, a producer whose source ids count down —
// each land past that block's end. They must fill blocks of their own
// as an ascending run does, not open a 4 KiB block each.
func TestDescendingRunStaysCompact(t *testing.T) {
	m := newMemtable(false)
	defer m.free()
	const ascending, descending = 2 * blockRefs, 10_000
	keyBytes := 0
	put := func(k string) {
		m.put(k, nil, int64(m.size))
		keyBytes += len(k)
	}
	for i := 0; i < ascending; i++ {
		put(fmt.Sprintf("c/class-0/%020d", i))
	}
	for i := descending; i > 0; i-- {
		put(fmt.Sprintf("c/class-1/%020d", i))
	}
	overhead := float64(m.total-keyBytes) / float64(m.size)
	t.Logf("%d entries: %d blocks, %.1f B/entry over keys", m.size, len(m.dir), overhead)
	if overhead > 48 {
		t.Errorf("arena spends %.1f B per entry beyond keys, want at most 48", overhead)
	}
	if most := 2*m.size/blockRefs + 2; len(m.dir) > most {
		t.Errorf("%d entries took %d blocks, want at most %d (half full)", m.size, len(m.dir), most)
	}
	i := 0
	Tx{table: m, err: new(error)}.AscendKeys("c/class-1/", "", func(k string) bool {
		i++
		if want := fmt.Sprintf("c/class-1/%020d", i); k != want {
			t.Fatalf("step %d visited %q, want %q", i, k, want)
		}
		return true
	})
	if i != descending {
		t.Errorf("AscendKeys visited %d keys, want %d", i, descending)
	}
}

// indexKeys returns n keys shaped as the events index writes them, in
// the order it writes them: per event, its record under a random global
// id, then its person and class index keys under an ascending
// timestamp.
func indexKeys(n int) []string {
	r := rand.New(rand.NewSource(1))
	persons := make([]string, 2000)
	for i := range persons {
		persons[i] = fmt.Sprintf("%024x", r.Uint64())
	}
	keys := make([]string, 0, n+2)
	for i := 0; len(keys) < n; i++ {
		gid := fmt.Sprintf("evt-%016x%016x", r.Uint64(), r.Uint64())
		ts := fmt.Sprintf("%020d", 1267430400000000000+int64(i)*60e9)
		keys = append(keys, "e/"+gid,
			"p/"+persons[r.Intn(len(persons))]+"/"+ts+"/"+gid,
			fmt.Sprintf("c/hospital.class-%d/%s/%s", i%9, ts, gid))
	}
	return keys[:n]
}

// benchTable returns a disk table holding the first 200 000 of keys.
func benchTable(keys []string) *memtable {
	m := newMemtable(false)
	for i, k := range keys[:200_000] {
		m.put(k, nil, int64(i))
	}
	return m
}

// BenchmarkMemtablePut: one put of a new key into a disk table holding
// 200 000 index keys, in the order the index writes them. Every 200 000
// puts the table starts over from the 200 000 keys.
func BenchmarkMemtablePut(b *testing.B) {
	keys := indexKeys(400_000)
	value := make([]byte, 200)
	m := benchTable(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%200_000 == 0 {
			b.StopTimer()
			m.free()
			m = benchTable(keys)
			b.StartTimer()
		}
		m.put(keys[200_000+i%200_000], value, int64(i))
	}
	b.StopTimer()
	m.free()
}

var benchFound bool

// BenchmarkMemtableGet: one lookup of a present key in a disk table
// holding 200 000 index keys, in random order.
func BenchmarkMemtableGet(b *testing.B) {
	keys := indexKeys(200_000)
	m := benchTable(keys)
	defer m.free()
	order := rand.New(rand.NewSource(2)).Perm(len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFound = m.find(keys[order[i%len(order)]]) != nil
	}
}
