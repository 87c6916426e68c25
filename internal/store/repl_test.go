package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Satellite regression: a fully present WAL record whose payload was
// bit-flipped must fail replay hard — even when it is the FINAL record
// of the file, where the old code forgave the mismatch as a "torn
// tail" and silently truncated durably written history.
func TestBitFlippedFrameIsHardError(t *testing.T) {
	build := func(t *testing.T) (string, []byte) {
		path := filepath.Join(t.TempDir(), "data.wal")
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			var b Batch
			b.Put(fmt.Sprintf("key-%d", i), bytes.Repeat([]byte{byte('a' + i)}, 32))
			b.Put(fmt.Sprintf("aux-%d", i), []byte("sidecar"))
			if err := s.Apply(&b); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}

	flipAndOpen := func(t *testing.T, path string, data []byte, at int) error {
		flipped := bytes.Clone(data)
		flipped[at] ^= 0x10
		if err := os.WriteFile(path, flipped, 0o600); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, Options{})
		if st != nil {
			st.Close()
		}
		return err
	}

	t.Run("payload mid-file", func(t *testing.T) {
		path, data := build(t)
		if err := flipAndOpen(t, path, data, len(data)/3); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})
	t.Run("payload of final record", func(t *testing.T) {
		path, data := build(t)
		// Last byte of the file is inside the final record's payload.
		if err := flipAndOpen(t, path, data, len(data)-1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt (final record fully present)", err)
		}
	})
	t.Run("zero length with data behind it", func(t *testing.T) {
		path, data := build(t)
		// Zero the length field of the first record: replay must not
		// silently discard the intact records behind it.
		mut := bytes.Clone(data)
		copy(mut[0:4], []byte{0, 0, 0, 0})
		if err := os.WriteFile(path, mut, 0o600); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, Options{})
		if st != nil {
			st.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})
	t.Run("genuine torn tail still recovers", func(t *testing.T) {
		path, data := build(t)
		if err := os.WriteFile(path, data[:len(data)-5], 0o600); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("Open after torn tail: %v", err)
		}
		defer st.Close()
		if n, _ := st.Len(); n != 6 {
			t.Fatalf("Len = %d, want 6 (three intact batches)", n)
		}
	})
	t.Run("trailing zero fill still recovers", func(t *testing.T) {
		path, data := build(t)
		padded := append(bytes.Clone(data), make([]byte, 64)...)
		if err := os.WriteFile(path, padded, 0o600); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("Open with zero fill: %v", err)
		}
		defer st.Close()
		if n, _ := st.Len(); n != 8 {
			t.Fatalf("Len = %d, want 8", n)
		}
	})
}

// A follower fed ReadWAL segments ends with a byte-identical WAL and
// identical contents, resuming from its own offset after a break.
func TestReadApplyWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	primary, err := Open(filepath.Join(dir, "p.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower, err := Open(filepath.Join(dir, "f.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	for i := 0; i < 50; i++ {
		if err := primary.Put(fmt.Sprintf("k%03d", i), bytes.Repeat([]byte{byte(i)}, i%40)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			primary.Delete(fmt.Sprintf("k%03d", i/2))
		}
	}
	var b Batch
	b.Put("batch/a", []byte("one"))
	b.Delete("k001")
	b.Put("batch/b", []byte("two"))
	if err := primary.Apply(&b); err != nil {
		t.Fatal(err)
	}

	gen := primary.WALGen()
	cursor := int64(0)
	// Ship in deliberately small chunks to exercise record trimming.
	for {
		seg, err := primary.ReadWAL(gen, cursor, 64)
		if err != nil {
			t.Fatalf("ReadWAL at %d: %v", cursor, err)
		}
		if seg == nil {
			break
		}
		next, err := follower.ApplyWALSegment(cursor, seg)
		if err != nil {
			t.Fatalf("ApplyWALSegment at %d: %v", cursor, err)
		}
		cursor = next
	}
	if cursor != primary.WALOffset() {
		t.Fatalf("follower cursor %d, primary offset %d", cursor, primary.WALOffset())
	}
	if err := follower.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	pb, _ := os.ReadFile(filepath.Join(dir, "p.wal"))
	fb, _ := os.ReadFile(filepath.Join(dir, "f.wal"))
	if !bytes.Equal(pb, fb) {
		t.Fatalf("follower WAL (%d bytes) not byte-identical to primary (%d bytes)", len(fb), len(pb))
	}
	pn, _ := primary.Len()
	fn, _ := follower.Len()
	if pn != fn {
		t.Fatalf("follower Len %d, primary Len %d", fn, pn)
	}
	v, ok, _ := follower.Get("batch/b")
	if !ok || string(v) != "two" {
		t.Fatalf("follower Get(batch/b) = %q %v", v, ok)
	}
}

func TestApplyWALSegmentRejectsCorruptAndGaps(t *testing.T) {
	dir := t.TempDir()
	primary, err := Open(filepath.Join(dir, "p.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 5; i++ {
		primary.Put(fmt.Sprintf("k%d", i), []byte("value"))
	}
	seg, err := primary.ReadWAL(primary.WALGen(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	follower, err := Open(filepath.Join(dir, "f.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// A bit-flipped replicated record is rejected wholesale.
	bad := bytes.Clone(seg)
	bad[len(bad)/2] ^= 0x01
	if _, err := follower.ApplyWALSegment(0, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ApplyWALSegment(corrupt) = %v, want ErrCorrupt", err)
	}
	if n, _ := follower.Len(); n != 0 {
		t.Fatalf("corrupt segment partially applied: Len = %d", n)
	}
	// A non-contiguous offset is rejected.
	if _, err := follower.ApplyWALSegment(8, seg); err == nil {
		t.Fatal("ApplyWALSegment with offset gap succeeded")
	}
	if _, err := follower.ApplyWALSegment(0, seg); err != nil {
		t.Fatal(err)
	}
	if n, _ := follower.Len(); n != 5 {
		t.Fatalf("Len = %d, want 5", n)
	}
}

func TestWALWatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ch := make(chan struct{}, 1)
	s.WatchWAL(ch)
	defer s.UnwatchWAL(ch)
	if err := s.Put("watched", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no WAL watch notification after Put")
	}
}
