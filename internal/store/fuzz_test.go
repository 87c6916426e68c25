package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzWALReplay: replaying an arbitrary file must never panic, must
// never report a valid length beyond the file size, and the store must
// open (or fail cleanly) after truncating to the reported length.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real WAL.
	dir, err := os.MkdirTemp("", "fuzzwal")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, "seed.wal")
	s, err := Open(seedPath, Options{})
	if err != nil {
		f.Fatal(err)
	}
	s.Put("key-one", []byte("value-one"))
	s.Put("key-two", []byte("value-two"))
	s.Delete("key-one")
	var b Batch
	b.Put("batch-one", []byte("batched-value"))
	b.Delete("key-two")
	b.Put("batch-two", []byte("another"))
	if err := s.Apply(&b); err != nil {
		f.Fatal(err)
	}
	s.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail (inside the batch frame)
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a wal at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		count := 0
		validLen, err := replayWAL(path, func(r walRecord, _ int64) error {
			count++
			if r.op != opPut && r.op != opDel {
				t.Fatalf("replay surfaced invalid op %d", r.op)
			}
			return nil
		})
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0,%d]", validLen, len(data))
		}
		if err != nil {
			return // corrupt middle is a clean refusal
		}
		// A clean replay means Open must succeed on the same bytes.
		st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("replay clean but Open failed: %v", err)
		}
		st.Close()
	})
}

// FuzzMemtableModel: an arbitrary stream of inserts, overwrites and
// deletes — values empty, small, or large enough that a few of them
// force an arena rebuild — over the blocks prefill leaves must keep the
// table and a plain map answering every read alike, and so must one more
// rebuild at the end. Three bytes make one op: what to do, the key (1–3
// letters of a 4-letter alphabet, so keys collide, share prefixes and
// sort among prefill's) and the value's size.
func FuzzMemtableModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x41, 7, 0, 0x41, 0, 2, 0x41, 0, 2, 0x41, 0})
	f.Add([]byte{3, 0x80, 200, 3, 0x80, 201, 3, 0x85, 255, 2, 0x80, 0, 0, 0x05, 9, 3, 0x85, 130})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, tx := memTable(t)
		m := prefill(t, l, func(k, v string) { l.put(k, []byte(v), 0) }, func(k string) { l.del(k) })
		var froms, prefixes []string
		for ; len(data) >= 3; data = data[3:] {
			op, kb, vb := data[0], data[1], data[2]
			k := string([]byte{'a' + kb&3, 'a' + kb>>2&3, 'a' + kb>>4&3}[:1+kb>>6%3])
			froms = append(froms, k, k+"a")
			prefixes = append(prefixes, k, k[:1])
			switch op % 4 {
			case 2:
				if existed := l.del(k); existed != hasKey(m, k) {
					t.Fatalf("del(%q) existed = %v, model disagrees", k, existed)
				}
				delete(m, k)
				continue
			case 3:
				m[k] = strings.Repeat(string(rune('A'+vb%26)), int(vb)*chunkSize/128)
			default:
				m[k] = strings.Repeat("v", int(vb))
			}
			l.put(k, []byte(m[k]), 0)
			if v, ok := tx.Get(k); !ok || string(v) != m[k] {
				t.Fatalf("get(%q) after put = %d bytes, %v; want %d bytes", k, len(v), ok, len(m[k]))
			}
		}
		checkAgainstModel(t, "live", tx, m, froms, prefixes)
		l.rebuild()
		checkAgainstModel(t, "rebuilt", tx, m, froms, prefixes)
	})
}

// checkStore compares every read a store offers with a plain map: Len
// and Get of each key, then every read of a View (checkAgainstModel).
func checkStore(t *testing.T, what string, s *Store, m map[string]string) {
	t.Helper()
	if n, err := s.Len(); err != nil || n != len(m) {
		t.Fatalf("%s: Len = %d, %v; model holds %d", what, n, err, len(m))
	}
	for k, want := range m {
		if v, ok, err := s.Get(k); err != nil || !ok || string(v) != want {
			t.Fatalf("%s: Get(%q) = %d bytes, %v, %v; model holds %d bytes", what, k, len(v), ok, err, len(want))
		}
	}
	err := s.View(func(tx Tx) error {
		checkAgainstModel(t, what, tx, m, nil, nil)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: View = %v", what, err)
	}
}

// prefillStore writes prefill's keys to s through Put and Delete.
func prefillStore(t *testing.T, s *Store) map[string]string {
	t.Helper()
	return prefill(t, s.table, func(k, v string) {
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}, func(k string) {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	})
}

// rebuildStore rebuilds the table of s, as churn would.
func rebuildStore(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table.rebuild()
}

// boundary is the model as it stood when the WAL ended at offset at.
type boundary struct {
	at int64
	m  map[string]string
}

// runModelOps applies an op stream to s, prefilled (prefillStore), and
// to a plain map. Three bytes make one op: what to do, the key (as in
// FuzzMemtableModel) and the value's size, times scale; op 4 opens or
// applies a batch. It returns the model and a snapshot of it at the
// empty WAL, at the end of the prefill and at every WAL offset a write
// ended on (a memory store's are all 0).
func runModelOps(t *testing.T, s *Store, ops []byte, scale int) (map[string]string, []boundary) {
	t.Helper()
	m := prefillStore(t, s)
	bounds := []boundary{{0, map[string]string{}}}
	mark := func() {
		snap := make(map[string]string, len(m))
		for k, v := range m {
			snap[k] = v
		}
		bounds = append(bounds, boundary{s.WALOffset(), snap})
	}
	mark()
	var b *Batch
	for i := 0; len(ops) >= 3; i, ops = i+1, ops[3:] {
		op, kb, vb := ops[0], ops[1], ops[2]
		k := string([]byte{'a' + kb&3, 'a' + kb>>2&3, 'a' + kb>>4&3}[:1+kb>>6%3])
		v := fmt.Sprintf("%d:%s", i, strings.Repeat(string(rune('A'+vb%26)), int(vb)*int(op%4)*scale))
		switch op % 5 {
		case 4:
			if b == nil {
				b = &Batch{}
				continue
			}
			if err := s.Apply(b); err != nil {
				t.Fatal(err)
			}
			b = nil
			mark()
			continue
		case 2:
			if b != nil {
				b.Delete(k)
			} else if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(m, k)
		default:
			if b != nil {
				b.Put(k, []byte(v))
			} else if err := s.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			m[k] = v
		}
		if b == nil {
			mark()
		}
	}
	if b != nil {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		mark()
	}
	return m, bounds
}

// FuzzDiskStoreModel: an arbitrary stream of puts, overwrites, deletes
// and batches (runModelOps) on a disk store, whose memtable keeps only
// where each value lies in the WAL, must answer every read like a plain
// map: live, after a rebuild of its table, after Close and Open, after
// TruncateWAL back to a record boundary (against the model as it stood
// there), and on a second store fed the same bytes through ReadWAL and
// ApplyWALSegment. The first byte picks the truncation point and the
// follower's segment size.
func FuzzDiskStoreModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0x41, 7, 0, 0x41, 9, 2, 0x41, 0, 1, 0x42, 200})
	f.Add([]byte{5, 4, 0, 0, 0, 0x80, 20, 3, 0x85, 255, 2, 0x80, 0, 4, 0, 0, 1, 0x80, 3, 2, 0x05, 0})
	f.Add([]byte("\x00000")) // ReadWAL capped below one record header

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 3*64+1 {
			return
		}
		pick := int(data[0])
		dir := t.TempDir()
		path := filepath.Join(dir, "model.wal")
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		m, bounds := runModelOps(t, s, data[1:], 1)
		checkStore(t, "live", s, m)
		rebuildStore(s)
		checkStore(t, "rebuilt", s, m)

		follower, err := Open(filepath.Join(dir, "follower.wal"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()
		for cursor := int64(0); ; {
			seg, err := s.ReadWAL(s.WALGen(), cursor, 1+pick*8)
			if err != nil {
				t.Fatal(err)
			}
			if seg == nil {
				break
			}
			if cursor, err = follower.ApplyWALSegment(cursor, seg); err != nil {
				t.Fatal(err)
			}
		}
		checkStore(t, "follower", follower, m)

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(path, Options{}); err != nil {
			t.Fatal(err)
		}
		checkStore(t, "reopened", s, m)

		cut := bounds[pick%len(bounds)]
		if err := s.TruncateWAL(cut.at); err != nil {
			t.Fatal(err)
		}
		checkStore(t, "truncated", s, cut.m)
	})
}

// FuzzMemoryStoreModel runs FuzzDiskStoreModel's op streams on a memory
// store, whose memtable holds the values as well, with values 128 times
// longer (up to 96 KiB): enough that overwrites rebuild the arena,
// copying the values into fresh chunks and unmapping the old ones,
// within the 64 ops a stream may hold. Every read must answer like the
// map, after one more rebuild too, and writing over everything the reads
// returned must change nothing in the store. The first byte is unused, as it picks nothing a
// memory store has.
func FuzzMemoryStoreModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0x41, 7, 0, 0x41, 9, 2, 0x41, 0, 1, 0x42, 200})
	f.Add([]byte{5, 4, 0, 0, 0, 0x80, 20, 3, 0x85, 255, 2, 0x80, 0, 4, 0, 0, 1, 0x80, 3, 2, 0x05, 0})
	// Twenty 96 KiB overwrites of one key: the dead bytes pass a chunk
	// and the live ones, so the arena is rebuilt.
	f.Add(append([]byte{0}, bytes.Repeat([]byte{3, 0, 255}, 20)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 3*64+1 {
			return
		}
		s := OpenMemory()
		defer s.Close()
		m, _ := runModelOps(t, s, data[1:], 128)
		checkStore(t, "live", s, m)
		rebuildStore(s)
		checkStore(t, "rebuilt", s, m)
		scribble := func(v []byte) {
			for i := range v {
				v[i] = '#'
			}
		}
		for k := range m {
			v, _, _ := s.Get(k)
			scribble(v)
		}
		s.View(func(tx Tx) error {
			tx.AscendPrefix("", func(_ string, v []byte) bool {
				scribble(v)
				return true
			})
			_, v, _ := tx.Last("")
			scribble(v)
			return nil
		})
		checkStore(t, "after writes into read values", s, m)
	})
}
