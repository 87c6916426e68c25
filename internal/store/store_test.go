package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.wal")
	s, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestPutGetDelete(t *testing.T) {
	s, _ := openTemp(t, Options{})
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := s.Get("k1")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := s.Get("absent"); ok {
		t.Error("Get(absent) reported present")
	}
	if err := s.Put("k1", []byte("v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if v, _, _ := s.Get("k1"); string(v) != "v2" {
		t.Errorf("after overwrite Get = %q", v)
	}
	if err := s.Delete("k1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, _ := s.Get("k1"); ok {
		t.Error("deleted key still present")
	}
	if err := s.Delete("absent"); err != nil {
		t.Errorf("Delete(absent) = %v, want nil", err)
	}
	if err := s.Put("", []byte("x")); err == nil {
		t.Error("Put with empty key accepted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := OpenMemory()
	if err := s.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, _, _ := s.Get("k")
	v[0] = 'X'
	v2, _, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Errorf("internal value mutated through returned slice: %q", v2)
	}
	// Put must also copy its input.
	in := []byte("def")
	s.Put("k2", in)
	in[0] = 'X'
	v3, _, _ := s.Get("k2")
	if string(v3) != "def" {
		t.Errorf("internal value aliases caller slice: %q", v3)
	}
}

func TestLen(t *testing.T) {
	s := OpenMemory()
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte("v"))
	}
	s.Put("k00", []byte("v2")) // overwrite, no growth
	s.Delete("k01")
	if n, _ := s.Len(); n != 9 {
		t.Errorf("Len = %d, want 9", n)
	}
}

func TestAscendPrefixAndRange(t *testing.T) {
	s := OpenMemory()
	for _, k := range []string{"a/1", "a/2", "a/3", "b/1", "c/1"} {
		s.Put(k, []byte(k))
	}
	var got []string
	s.AscendPrefix("a/", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3 || got[0] != "a/1" || got[2] != "a/3" {
		t.Errorf("AscendPrefix = %v", got)
	}
	got = nil
	s.AscendPrefix("a/", func(k string, v []byte) bool {
		got = append(got, k)
		return len(got) < 2 // early stop
	})
	if len(got) != 2 {
		t.Errorf("early-stop AscendPrefix visited %d", len(got))
	}
	got = nil
	s.View(func(tx Tx) error {
		tx.AscendKeys("a/", "a/2", func(k string) bool {
			got = append(got, k)
			return true
		})
		return nil
	})
	if len(got) != 2 || got[0] != "a/2" || got[1] != "a/3" {
		t.Errorf("AscendKeys(a/, a/2) = %v", got)
	}
	got = nil
	s.View(func(tx Tx) error {
		tx.AscendKeys("", "b/1", func(k string) bool {
			got = append(got, k)
			return true
		})
		return nil
	})
	if len(got) != 2 || got[1] != "c/1" {
		t.Errorf("AscendKeys from b/1 = %v", got)
	}
}

func TestRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.wal")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete("key-050")
	s.Put("key-000", []byte("rewritten"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if n, _ := r.Len(); n != 99 {
		t.Errorf("recovered Len = %d, want 99", n)
	}
	if v, ok, _ := r.Get("key-000"); !ok || string(v) != "rewritten" {
		t.Errorf("recovered key-000 = %q, %v", v, ok)
	}
	if _, ok, _ := r.Get("key-050"); ok {
		t.Error("deleted key resurrected after recovery")
	}
	if v, ok, _ := r.Get("key-099"); !ok || string(v) != "val-99" {
		t.Errorf("recovered key-099 = %q, %v", v, ok)
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.wal")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("value"))
	}
	s.Close()

	// Simulate a crash mid-append: chop a few bytes off the last record.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if n, _ := r.Len(); n != 9 {
		t.Errorf("Len after torn tail = %d, want 9", n)
	}
	// The store must be writable again and survive another cycle.
	if err := r.Put("k9", []byte("value")); err != nil {
		t.Fatalf("Put after truncation: %v", err)
	}
	r.Close()
	r2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer r2.Close()
	if n, _ := r2.Len(); n != 10 {
		t.Errorf("Len after rewrite = %d, want 10", n)
	}
}

func TestMidLogCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.wal")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("key-with-some-length-%d", i), []byte("a reasonably sized value here"))
	}
	s.Close()

	// Flip a byte in the middle of the file (inside an early record's
	// payload) — this is corruption, not a torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Error("Open accepted mid-log corruption")
	}
}

func TestClosedStore(t *testing.T) {
	s := OpenMemory()
	s.Close()
	if err := s.Put("k", nil); err != ErrClosed {
		t.Errorf("Put on closed = %v", err)
	}
	if _, _, err := s.Get("k"); err != ErrClosed {
		t.Errorf("Get on closed = %v", err)
	}
	if err := s.Delete("k"); err != ErrClosed {
		t.Errorf("Delete on closed = %v", err)
	}
	if _, err := s.Len(); err != ErrClosed {
		t.Errorf("Len on closed = %v", err)
	}
	if err := s.AscendPrefix("", nil); err != ErrClosed {
		t.Errorf("AscendPrefix on closed = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

func TestSyncEveryMode(t *testing.T) {
	s, _ := openTemp(t, Options{SyncEvery: true})
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Put with SyncEvery: %v", err)
		}
	}
	if n, _ := s.Len(); n != 10 {
		t.Errorf("Len = %d", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := openTemp(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d/k%03d", g, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if v, ok, err := s.Get(key); err != nil || !ok || string(v) != key {
					t.Errorf("Get(%s) = %q, %v, %v", key, v, ok, err)
					return
				}
				if i%10 == 0 {
					s.AscendPrefix(fmt.Sprintf("g%d/", g), func(string, []byte) bool { return true })
				}
			}
		}(g)
	}
	wg.Wait()
	if n, _ := s.Len(); n != 8*200 {
		t.Errorf("Len = %d, want %d", n, 8*200)
	}
}

func TestOpenEmptyPath(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Error("Open(\"\") accepted")
	}
}

func TestOpenCreatesDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep", "nested", "data.wal")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open with missing dirs: %v", err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestTxLast(t *testing.T) {
	s := OpenMemory()
	for _, k := range []string{"a/1", "a/2", "a/3", "b/1"} {
		s.Put(k, []byte("v"+k))
	}
	s.View(func(tx Tx) error {
		if k, v, ok := tx.Last("a/"); !ok || k != "a/3" || string(v) != "va/3" {
			t.Errorf(`Last("a/") = %q, %q, %v`, k, v, ok)
		}
		if k, _, ok := tx.Last("a0"); ok {
			t.Errorf(`Last("a0") found %q`, k)
		}
		return nil
	})
}

// TestViewSlicesSurviveRebuild: a value slice read from a View points
// into the arena; when churn rebuilds the table into fresh chunks, and
// when the key is overwritten afterwards, the slice keeps reading what
// it read.
func TestViewSlicesSurviveRebuild(t *testing.T) {
	s := OpenMemory()
	const want = "the value a reader is still holding"
	s.Put("held", []byte(want))
	var held []byte
	s.View(func(tx Tx) error {
		held, _ = tx.Get("held")
		return nil
	})
	before := s.table.total
	junk := make([]byte, chunkSize/8)
	for i := 0; s.table.total >= before; i++ {
		if i > 100 {
			t.Fatal("100 overwrites of a 128 KiB value did not rebuild the arena")
		}
		before = s.table.total
		s.Put("churn", junk)
	}
	var moved []byte
	s.View(func(tx Tx) error {
		moved, _ = tx.Get("held")
		return nil
	})
	if string(moved) != want || &moved[0] == &held[0] {
		t.Errorf("after the rebuild the table reads %q at the same address: %v", moved, &moved[0] == &held[0])
	}
	s.Put("held", []byte("overwritten"))
	if string(held) != want {
		t.Errorf("held slice now reads %q", held)
	}
}

// TestValueReadErrorIsAnError: a disk store reads values from its WAL,
// so a log shortened behind its back loses them. Get, View and the
// iterators must say so with an error — never report the key absent —
// while keys, and values still in the file, stay readable.
func TestValueReadErrorIsAnError(t *testing.T) {
	s, path := openTemp(t, Options{})
	if err := s.Put("a", []byte("still in the file")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("cut off")); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, s.WALOffset()-3); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s.Get("b"); err == nil || ok {
		t.Errorf("Get of a lost value = %q, %v, %v; want an error", v, ok, err)
	}
	var later bool
	err := s.View(func(tx Tx) error {
		if _, ok := tx.Get("b"); ok {
			t.Error("Tx.Get of a lost value reported it")
		}
		_, later = tx.Get("a")
		return nil
	})
	if err == nil {
		t.Error("View that read a lost value returned nil")
	}
	if later {
		t.Error("a read after the failed one succeeded: the error is not sticky")
	}
	if err := s.AscendPrefix("", func(string, []byte) bool { return true }); err == nil {
		t.Error("AscendPrefix over a lost value returned nil")
	}
	if v, ok, err := s.Get("a"); err != nil || !ok || string(v) != "still in the file" {
		t.Errorf("Get(a) = %q, %v, %v", v, ok, err)
	}
	if ok, err := s.Has("b"); err != nil || !ok {
		t.Errorf("Has(b) = %v, %v: the key is still in memory", ok, err)
	}
}
