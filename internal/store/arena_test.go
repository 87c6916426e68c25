package store

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledMapped runs the finalizers of every table already dropped and
// returns the arena bytes still mapped. The finalizer goroutine runs one
// collection's queue to its end before it takes the next, so once a
// sentinel queued by a second collection has run, every finalizer the
// first collection queued has run too.
func settledMapped(t *testing.T) int64 {
	t.Helper()
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		func() {
			sentinel := new([64]byte)
			runtime.SetFinalizer(sentinel, func(*[64]byte) { close(done) })
		}()
		runtime.GC()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the finalizer queue did not drain within 10s")
		}
	}
	return mappedBytes.Load()
}

// stores opens one store of each kind, closed when the test ends.
var stores = []struct {
	name string
	open func(t *testing.T) *Store
}{
	{"disk", func(t *testing.T) *Store { s, _ := openTemp(t, Options{}); return s }},
	{"memory", func(t *testing.T) *Store {
		s := OpenMemory()
		t.Cleanup(func() { s.Close() })
		return s
	}},
}

// fill writes n keys in one batch.
func fill(t *testing.T, s *Store, n int) {
	t.Helper()
	var b Batch
	for i := 0; i < n; i++ {
		b.Put(fmt.Sprintf("key/%08d", i), []byte("a value of a few bytes"))
	}
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnmapsArena: Close returns every chunk the store mapped, and
// every call after it answers ErrClosed instead of touching them.
func TestCloseUnmapsArena(t *testing.T) {
	for _, kind := range stores {
		t.Run(kind.name, func(t *testing.T) {
			before := settledMapped(t)
			s := kind.open(t)
			fill(t, s, 50_000)
			if got, want := mappedBytes.Load()-before, int64(arenaBytes(s.table)); got != want || got <= chunkSize {
				t.Fatalf("the store mapped %d bytes, its arena holds %d; want equal and over one chunk", got, want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := mappedBytes.Load(); got != before {
				t.Errorf("after Close %d bytes are mapped, want %d as before Open", got, before)
			}
			if _, _, err := s.Get("key/00000001"); err != ErrClosed {
				t.Errorf("Get after Close = %v", err)
			}
			if _, err := s.Has("key/00000001"); err != ErrClosed {
				t.Errorf("Has after Close = %v", err)
			}
			if err := s.View(func(Tx) error { t.Error("View ran its function after Close"); return nil }); err != ErrClosed {
				t.Errorf("View after Close = %v", err)
			}
			if err := s.AscendPrefix("", func(string, []byte) bool { return true }); err != ErrClosed {
				t.Errorf("AscendPrefix after Close = %v", err)
			}
			if err := s.Put("key/00000001", []byte("v")); err != ErrClosed {
				t.Errorf("Put after Close = %v", err)
			}
			if err := s.Delete("key/00000001"); err != ErrClosed {
				t.Errorf("Delete after Close = %v", err)
			}
		})
	}
}

// TestRebuildUnmapsOldArena: once churn rebuilds a table, the chunks it
// left are unmapped at once — what is mapped is the new arena, not old
// plus new.
func TestRebuildUnmapsOldArena(t *testing.T) {
	for _, kind := range stores {
		t.Run(kind.name, func(t *testing.T) {
			before := settledMapped(t)
			s := kind.open(t)
			// A disk store's dead bytes are deleted nodes: put and delete
			// keys long enough that a few thousand rounds pass a chunk.
			long := strings.Repeat("k", 500)
			for i := 0; ; i++ {
				if i > 10_000 {
					t.Fatal("10 000 put+delete rounds did not rebuild the arena")
				}
				total := s.table.total
				k := fmt.Sprintf("%s/%06d", long, i)
				if err := s.Put(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
				if err := s.Delete(k); err != nil {
					t.Fatal(err)
				}
				if s.table.total < total {
					break
				}
			}
			if got, want := mappedBytes.Load()-before, int64(arenaBytes(s.table)); got != want {
				t.Errorf("after a rebuild the store maps %d bytes, its new arena %d", got, want)
			}
		})
	}
}

// TestTruncateWALUnmapsReplacedList: TruncateWAL replays the surviving
// prefix into a new table and unmaps the one it replaces.
func TestTruncateWALUnmapsReplacedList(t *testing.T) {
	before := settledMapped(t)
	s, _ := openTemp(t, Options{})
	if err := s.Put("first", []byte("survives the cut")); err != nil {
		t.Fatal(err)
	}
	cut := s.WALOffset()
	fill(t, s, 50_000)
	if err := s.TruncateWAL(cut); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("Len after the cut = %d, want 1", n)
	}
	if got, want := mappedBytes.Load()-before, int64(arenaBytes(s.table)); got != want {
		t.Errorf("after TruncateWAL the store maps %d bytes, its new table %d", got, want)
	}
}

// TestDroppedStoreIsUnmapped: a store that is never closed — a memory
// store, or a disk store someone forgot — gives its chunks back once the
// collector finds it unreachable.
func TestDroppedStoreIsUnmapped(t *testing.T) {
	for _, kind := range []struct {
		name string
		open func(t *testing.T) *Store
	}{
		{"disk", func(t *testing.T) *Store {
			s, err := Open(filepath.Join(t.TempDir(), "dropped.wal"), Options{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"memory", func(*testing.T) *Store { return OpenMemory() }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			before := settledMapped(t)
			func() {
				s := kind.open(t)
				fill(t, s, 50_000)
				if mappedBytes.Load() <= before+chunkSize {
					t.Fatal("the store mapped less than one chunk")
				}
			}()
			deadline := time.Now().Add(10 * time.Second)
			for mappedBytes.Load() != before {
				if time.Now().After(deadline) {
					t.Fatalf("10s after the store was dropped %d bytes are mapped, want %d", mappedBytes.Load(), before)
				}
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestReadsAreCopies: every value a store hands out is the caller's —
// writing into it changes nothing stored. A memory store once handed
// out its arena from a Tx.
func TestReadsAreCopies(t *testing.T) {
	for _, kind := range stores {
		t.Run(kind.name, func(t *testing.T) {
			s := kind.open(t)
			const want = "abc"
			if err := s.Put("k", []byte(want)); err != nil {
				t.Fatal(err)
			}
			scribble := func(v []byte) bool {
				for i := range v {
					v[i] = 'X'
				}
				return true
			}
			check := func(read string) {
				t.Helper()
				if v, _, err := s.Get("k"); err != nil || string(v) != want {
					t.Fatalf("after writing into a value from %s, Get = %q, %v", read, v, err)
				}
			}
			v, _, _ := s.Get("k")
			scribble(v)
			check("Store.Get")
			s.AscendPrefix("", func(_ string, v []byte) bool { return scribble(v) })
			check("Store.AscendPrefix")
			s.View(func(tx Tx) error {
				v, _ := tx.Get("k")
				scribble(v)
				return nil
			})
			check("Tx.Get")
			s.View(func(tx Tx) error {
				_, v, _ := tx.Last("")
				scribble(v)
				return nil
			})
			check("Tx.Last")
			s.View(func(tx Tx) error {
				tx.AscendPrefix("", func(_ string, v []byte) bool { return scribble(v) })
				return nil
			})
			check("Tx.AscendPrefix")
		})
	}
}
