package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/idmap"
	"repro/internal/index"
	"repro/internal/store"
)

// TestMemtableFootprint holds a disk store's memtable to its three
// promises on the entries a controller really stores — the six a publish
// writes: the id mapping both ways, the sealed record with its person
// and class index keys, and the audit record. The values stay in the
// WAL, so the arena may spend at most 48 bytes per entry beyond the key
// bytes. The arena is mapped outside the Go heap, so loading 50 000
// entries may add at most 1 000 heap objects (three per entry before the
// arena) and at most 64 KiB of live heap (about 4.2 MB while the chunks
// were heap slices). The entries load in key order, which fills every
// block, and again in a seeded shuffled order, as random event ids
// arrive, which splits blocks and leaves them part full. All are counts,
// not timings, and repeat from run to run.
func TestMemtableFootprint(t *testing.T) {
	const publishes = 8334 // × 6 entries ≥ 50 000
	src := store.OpenMemory()
	keys, err := crypto.NewKeyring(bytes.Repeat([]byte{3}, crypto.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	ix, ids := index.New(src, keys), idmap.New(src)
	aud, err := audit.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	const producer, class = "hospital-s-maria", "hospital.blood-test"
	at := time.Date(2010, 3, 1, 8, 0, 0, 0, time.UTC)
	for i := 0; i < publishes; i++ {
		gid, err := ids.Assign(producer, event.SourceID(fmt.Sprintf("lab-%06d", i)), class)
		if err != nil {
			t.Fatal(err)
		}
		occurred := at.Add(time.Duration(i) * time.Minute)
		c, err := ix.PutStaged(&event.Notification{
			ID: gid, Class: class, PersonID: fmt.Sprintf("PRS-%04d", i%2000),
			Summary: "blood test results available", Producer: producer,
			OccurredAt: occurred, PublishedAt: occurred.Add(time.Second),
		})
		if err == nil {
			err = c.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := aud.Append(audit.Record{
			At: occurred, Kind: audit.KindPublish, Actor: producer, EventID: gid,
			Class: class, Outcome: "ok", Trace: "feedbeefcafe0001",
		}); err != nil {
			t.Fatal(err)
		}
	}
	type entry struct {
		key   string
		value []byte
	}
	var entries []entry
	keyBytes, valueBytes := 0, 0
	src.AscendPrefix("", func(k string, v []byte) bool {
		entries = append(entries, entry{k, v})
		keyBytes += len(k)
		valueBytes += len(v)
		return true
	})
	if len(entries) != 6*publishes {
		t.Fatalf("%d publishes left %d entries, want 6 each", publishes, len(entries))
	}

	shuffled := append([]entry(nil), entries...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range []struct {
		name    string
		entries []entry
	}{{"key_order", entries}, {"shuffled", shuffled}} {
		t.Run(order.name, func(t *testing.T) {
			dst, err := store.Open(filepath.Join(t.TempDir(), "footprint.wal"), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, e := range order.entries {
				if err := dst.Put(e.key, e.value); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)

			arena := dst.ArenaBytes()
			overhead := float64(arena-keyBytes) / float64(len(entries))
			objects := int64(after.HeapObjects) - int64(before.HeapObjects)
			heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			t.Logf("%d entries: %d key bytes, %d value bytes (in the WAL), %d arena bytes (%.1f B/entry over keys), %+d heap objects, %+d heap bytes",
				len(entries), keyBytes, valueBytes, arena, overhead, objects, heap)
			if overhead > 48 {
				t.Errorf("arena spends %.1f B per entry beyond keys, want at most 48", overhead)
			}
			if objects > 1000 {
				t.Errorf("loading %d entries added %d heap objects, want at most 1 000", len(entries), objects)
			}
			if heap > 64<<10 {
				t.Errorf("loading %d entries grew the heap by %d bytes, want at most 64 KiB: the arena is on the Go heap", len(entries), heap)
			}
			runtime.KeepAlive(dst)
		})
	}
	runtime.KeepAlive(entries)
	runtime.KeepAlive(shuffled)
}
