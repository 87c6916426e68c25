package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestBatchApply(t *testing.T) {
	s, _ := openTemp(t, Options{})
	s.Put("stale", []byte("old"))

	var b Batch
	b.Put("k1", []byte("v1"))
	b.Put("k2", []byte("v2"))
	b.Delete("stale")
	b.Put("k1", []byte("v1-final")) // later op on the same key wins
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if err := s.Apply(&b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if v, ok, _ := s.Get("k1"); !ok || string(v) != "v1-final" {
		t.Errorf("k1 = %q, %v", v, ok)
	}
	if v, ok, _ := s.Get("k2"); !ok || string(v) != "v2" {
		t.Errorf("k2 = %q, %v", v, ok)
	}
	if _, ok, _ := s.Get("stale"); ok {
		t.Error("deleted key survived the batch")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("Len after Reset = %d", b.Len())
	}
	if err := s.Apply(&b); err != nil {
		t.Errorf("Apply(empty) = %v", err)
	}
	if err := s.Apply(nil); err != nil {
		t.Errorf("Apply(nil) = %v", err)
	}
}

func TestBatchCopiesValues(t *testing.T) {
	s := OpenMemory()
	var b Batch
	in := []byte("abc")
	b.Put("k", in)
	in[0] = 'X' // caller reuses its slice before Apply
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	v, _, _ := s.Get("k")
	if string(v) != "abc" {
		t.Errorf("batch value aliases caller slice: %q", v)
	}
}

func TestBatchEmptyKeyRejected(t *testing.T) {
	s := OpenMemory()
	var b Batch
	b.Put("ok", []byte("v"))
	b.Put("", []byte("v"))
	if err := s.Apply(&b); err == nil {
		t.Fatal("batch with empty key accepted")
	}
	if _, ok, _ := s.Get("ok"); ok {
		t.Error("rejected batch partially applied")
	}
}

func TestBatchClosedStore(t *testing.T) {
	s := OpenMemory()
	s.Close()
	var b Batch
	b.Put("k", []byte("v"))
	if err := s.Apply(&b); err != ErrClosed {
		t.Errorf("Apply on closed = %v, want ErrClosed", err)
	}
}

func TestBatchRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.wal")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := 0; i < 10; i++ {
		b.Put(fmt.Sprintf("k-%02d", i), []byte(fmt.Sprintf("v-%d", i)))
	}
	b.Delete("k-03")
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if n, _ := r.Len(); n != 9 {
		t.Errorf("recovered Len = %d, want 9", n)
	}
	if v, ok, _ := r.Get("k-07"); !ok || string(v) != "v-7" {
		t.Errorf("recovered k-07 = %q, %v", v, ok)
	}
	if _, ok, _ := r.Get("k-03"); ok {
		t.Error("batched delete lost on recovery")
	}
}

// TestBatchTornTailAllOrNothing is the crash-atomicity guarantee: a batch
// frame torn at ANY byte boundary replays either completely (CRC intact)
// or not at all — never a prefix of its mutations.
func TestBatchTornTailAllOrNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.wal")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("pre", []byte("existing"))
	preSize := s.log.size
	var b Batch
	for i := 0; i < 8; i++ {
		b.Put(fmt.Sprintf("batch-%d", i), []byte("payload-payload-payload"))
	}
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := preSize; cut <= int64(len(full)); cut++ {
		torn := filepath.Join(t.TempDir(), fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(torn, full[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := Open(torn, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		n, _ := r.Len()
		if v, ok, _ := r.Get("pre"); !ok || string(v) != "existing" {
			t.Fatalf("cut %d: record before the batch lost", cut)
		}
		switch {
		case cut == int64(len(full)):
			if n != 9 {
				t.Fatalf("full file: Len = %d, want 9", n)
			}
		default:
			if n != 1 {
				t.Fatalf("cut %d: torn batch partially applied: Len = %d, want 1", cut, n)
			}
		}
		r.Close()
	}
}

// TestBatchWALFrameIsSingleRecord pins the wire format: one Apply of N
// mutations appends exactly one checksummed record to the log.
func TestBatchWALFrameIsSingleRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.wal")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Put("alpha", []byte("1"))
	b.Put("beta", []byte("2"))
	b.Delete("alpha")
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 9 {
		t.Fatalf("log too short: %d bytes", len(data))
	}
	payloadLen := binary.LittleEndian.Uint32(data[0:4])
	if int(payloadLen)+8 != len(data) {
		t.Errorf("batch produced more than one record: first payload %d, file %d", payloadLen, len(data))
	}
	if data[8] != opBatch {
		t.Errorf("frame op = %d, want opBatch", data[8])
	}
	if cnt := binary.LittleEndian.Uint32(data[9:13]); cnt != 3 {
		t.Errorf("frame count = %d, want 3", cnt)
	}
}

func TestView(t *testing.T) {
	s := OpenMemory()
	for _, k := range []string{"a/1", "a/2", "b/1"} {
		s.Put(k, []byte("val:"+k))
	}
	err := s.View(func(tx Tx) error {
		if v, ok := tx.Get("a/2"); !ok || string(v) != "val:a/2" {
			t.Errorf("Tx.Get = %q, %v", v, ok)
		}
		if _, ok := tx.Get("absent"); ok {
			t.Error("Tx.Get(absent) reported present")
		}
		var keys []string
		tx.AscendPrefix("a/", func(k string, v []byte) bool {
			keys = append(keys, k)
			return true
		})
		if len(keys) != 2 || keys[0] != "a/1" {
			t.Errorf("Tx.AscendPrefix = %v", keys)
		}
		keys = nil
		tx.AscendKeys("a/", "a/2", func(k string) bool {
			keys = append(keys, k)
			return true
		})
		if len(keys) != 1 || keys[0] != "a/2" {
			t.Errorf("Tx.AscendKeys = %v", keys)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	s.Close()
	if err := s.View(func(Tx) error { return nil }); err != ErrClosed {
		t.Errorf("View on closed = %v, want ErrClosed", err)
	}
}

// TestGroupCommitConcurrentWriters drives concurrent writers through a
// SyncEvery store and checks that everything lands durably — the group
// commit path must not acknowledge a write before its bytes are fsynced,
// and shared fsyncs must not deadlock with Close.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.wal")
	s, err := Open(path, Options{SyncEvery: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d/k%03d", w, i)
				if i%5 == 4 {
					var b Batch
					b.Put(key, []byte(key))
					b.Put(key+"/extra", []byte("x"))
					b.Delete(key + "/extra")
					if err := s.Apply(&b); err != nil {
						t.Errorf("Apply: %v", err)
						return
					}
					continue
				}
				if err := s.Put(key, []byte(key)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := s.Len(); n != writers*perWriter {
		t.Errorf("Len = %d, want %d", n, writers*perWriter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{SyncEvery: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if n, _ := r.Len(); n != writers*perWriter {
		t.Errorf("recovered Len = %d, want %d", n, writers*perWriter)
	}
}
