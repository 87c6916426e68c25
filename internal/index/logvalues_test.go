package index

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/store"
)

// TestIdxKeyYieldsEventID: scanIdx takes the event id from the person
// and class index keys, whose values are empty. For every such key
// PutStaged writes — occurrence times before 1970, at the ends of the
// UnixNano range and in the ±14 h zones included — the key yields the id
// of the event it was written for, and an inquiry over each key's time
// finds the event.
func TestIdxKeyYieldsEventID(t *testing.T) {
	ix := newIndex(t)
	times := []time.Time{
		t0,
		time.Unix(0, 0).UTC(),
		time.Unix(0, -1).UTC(),
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1901, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(0, -1<<63).UTC(),
		time.Unix(0, 1<<63-1).UTC(),
		time.Date(2010, 3, 1, 8, 0, 0, 0, time.FixedZone("LINT", 14*3600)),
		time.Date(1960, 3, 1, 8, 0, 0, 0, time.FixedZone("BIT", -12*3600)),
		time.Date(1960, 3, 1, 8, 0, 0, 0, time.FixedZone("M14", -14*3600)),
	}
	keyTime := map[string]string{} // event id -> the timeKey it was put at
	for i, at := range times {
		id := "evt-" + strings.Repeat("x", i) + "/with-slash"
		keyTime[id] = timeKey(at)
		if err := ix.Put(notif(id, "PRS-0001", "hospital.blood-test", at)); err != nil {
			t.Fatal(err)
		}
		got, err := ix.Inquire(Inquiry{PersonID: "PRS-0001", From: at, To: at})
		if err != nil || len(got) != 1 || got[0].ID != event.GlobalID(id) {
			t.Errorf("inquiry at %v found %d notifications, %v", at, len(got), err)
		}
	}
	checked := 0
	for _, prefix := range []string{"p/" + ix.Pseudonym("PRS-0001") + "/", "c/hospital.blood-test/"} {
		err := ix.st.AscendPrefix(prefix, func(k string, v []byte) bool {
			rest := k[len(prefix):]
			id, ok := idxKeyID(rest)
			if !ok || keyTime[string(id)] != rest[:20] || len(v) != 0 {
				t.Errorf("key %q yields id %q, %v; its value holds %q", k, id, ok, v)
			}
			checked++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked != 2*len(times) {
		t.Fatalf("checked %d index keys, want %d", checked, 2*len(times))
	}
}

// TestReadErrorIsNotNotFound: when the bytes of a record cannot be read
// back from the store's log, Get and Inquire fail, and the failure is
// not ErrNotFound — a reader must not take damage for absence.
func TestReadErrorIsNotNotFound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.wal")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ix := New(st, keyring(t))
	if err := ix.Put(notif("evt-1", "PRS-0001", "hospital.blood-test", t0)); err != nil {
		t.Fatal(err)
	}
	// The primary record is the first op of the batch frame, so cutting
	// the file to its first bytes leaves every value behind its end.
	if err := os.Truncate(path, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Get("evt-1"); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("Get after the log lost its bytes = %v, want a read error", err)
	}
	if _, err := ix.Inquire(Inquiry{PersonID: "PRS-0001"}); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("Inquire after the log lost its bytes = %v, want a read error", err)
	}
	if _, err := ix.Get("evt-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
}
