package store

import (
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
		validLen, err := replayWAL(path, func(r walRecord) error {
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
// force an arena rebuild — must leave the list and a plain map
// answering every read alike. Three bytes make one op: what to do, the
// key (1–3 letters of a 4-letter alphabet, so keys collide and share
// prefixes) and the value's size.
func FuzzMemtableModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x41, 7, 0, 0x41, 0, 2, 0x41, 0, 2, 0x41, 0})
	f.Add([]byte{3, 0x80, 200, 3, 0x80, 201, 3, 0x85, 255, 2, 0x80, 0, 0, 0x05, 9, 3, 0x85, 130})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := newSkipList(1)
		m := map[string]string{}
		froms, prefixes := []string{""}, []string{""}
		for ; len(data) >= 3; data = data[3:] {
			op, kb, vb := data[0], data[1], data[2]
			k := string([]byte{'a' + kb&3, 'a' + kb>>2&3, 'a' + kb>>4&3}[:1+kb>>6%3])
			froms = append(froms, k, k+"a")
			prefixes = append(prefixes, k, k[:1])
			switch op % 4 {
			case 2:
				if _, existed := l.del(k); existed != hasKey(m, k) {
					t.Fatalf("del(%q) existed = %v, model disagrees", k, existed)
				}
				delete(m, k)
				continue
			case 3:
				m[k] = strings.Repeat(string(rune('A'+vb%26)), int(vb)*chunkSize/128)
			default:
				m[k] = strings.Repeat("v", int(vb))
			}
			l.put(k, []byte(m[k]))
			if v, ok := l.get(k); !ok || string(v) != m[k] {
				t.Fatalf("get(%q) after put = %d bytes, %v; want %d bytes", k, len(v), ok, len(m[k]))
			}
		}
		checkAgainstModel(t, l, m, froms, prefixes)
	})
}
