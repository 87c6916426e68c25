package index

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/store"
)

func keyring(t *testing.T) *crypto.Keyring {
	t.Helper()
	k, err := crypto.NewKeyring(bytes.Repeat([]byte{3}, crypto.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func newIndex(t *testing.T) *Index {
	t.Helper()
	return New(store.OpenMemory(), keyring(t))
}

func notif(id string, person string, class event.ClassID, at time.Time) *event.Notification {
	return &event.Notification{
		ID:          event.GlobalID(id),
		Class:       class,
		PersonID:    person,
		Summary:     "something happened",
		OccurredAt:  at,
		Producer:    "hospital",
		PublishedAt: at.Add(time.Minute),
	}
}

var t0 = time.Date(2010, 3, 1, 8, 0, 0, 0, time.UTC)

func TestPutGetRoundTrip(t *testing.T) {
	ix := newIndex(t)
	n := notif("evt-1", "PRS-0001", "hospital.blood-test", t0)
	if err := ix.Put(n); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := ix.Get("evt-1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.PersonID != "PRS-0001" || got.Class != n.Class || !got.OccurredAt.Equal(n.OccurredAt) {
		t.Errorf("Get = %+v", got)
	}
	if _, err := ix.Get("evt-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	ix := newIndex(t)
	n := notif("", "p", "c.x", t0)
	if err := ix.Put(n); err == nil {
		t.Error("Put accepted notification without global id")
	}
	bad := notif("evt-1", "p", "Bad Class", t0)
	if err := ix.Put(bad); err == nil {
		t.Error("Put accepted bad class")
	}
}

func TestPersonIDEncryptedAtRest(t *testing.T) {
	st := store.OpenMemory()
	ix := New(st, keyring(t))
	if err := ix.Put(notif("evt-1", "PRS-SECRET-0001", "c.x", t0)); err != nil {
		t.Fatal(err)
	}
	// No key or value anywhere in the store may contain the identifier.
	leaked := false
	st.AscendPrefix("", func(k string, v []byte) bool {
		if strings.Contains(k, "PRS-SECRET") || strings.Contains(string(v), "PRS-SECRET") {
			leaked = true
			return false
		}
		return true
	})
	if leaked {
		t.Error("person identifier stored in the clear")
	}
}

// A record the retired plaintext baseline wrote (encrypted:false, the
// person identifier in the clear) still reads back.
func TestReadsOldPlaintextRecord(t *testing.T) {
	st := store.OpenMemory()
	st.Put(eventKey("evt-1"), []byte(`{"id":"evt-1","class":"c.x","personId":"PRS-1","encrypted":false,"summary":"s",`+
		`"occurredAt":"2010-05-30T09:00:00Z","producer":"hospital","publishedAt":"2010-05-30T09:01:00Z"}`))
	got, err := New(st, keyring(t)).Get("evt-1")
	if err != nil || got.PersonID != "PRS-1" || got.Class != "c.x" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
}

func TestInquireByPerson(t *testing.T) {
	ix := newIndex(t)
	for i := 0; i < 10; i++ {
		person := "PRS-A"
		if i%2 == 1 {
			person = "PRS-B"
		}
		n := notif(fmt.Sprintf("evt-%d", i), person, "c.x", t0.Add(time.Duration(i)*time.Hour))
		if err := ix.Put(n); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ix.Inquire(Inquiry{PersonID: "PRS-A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("Inquire(person) = %d", len(got))
	}
	for i, n := range got {
		if n.PersonID != "PRS-A" {
			t.Errorf("result %d has person %s", i, n.PersonID)
		}
		if i > 0 && got[i].OccurredAt.Before(got[i-1].OccurredAt) {
			t.Error("results out of time order")
		}
	}
	if got, _ := ix.Inquire(Inquiry{PersonID: "PRS-NOBODY"}); len(got) != 0 {
		t.Errorf("unknown person = %d results", len(got))
	}
}

func TestInquireByClassAndProducer(t *testing.T) {
	ix := newIndex(t)
	for i := 0; i < 6; i++ {
		class := event.ClassID("c.one")
		if i >= 3 {
			class = "c.two"
		}
		n := notif(fmt.Sprintf("evt-%d", i), "P", class, t0.Add(time.Duration(i)*time.Hour))
		if i == 5 {
			n.Producer = "other-producer"
		}
		ix.Put(n)
	}
	if got, _ := ix.Inquire(Inquiry{Class: "c.one"}); len(got) != 3 {
		t.Errorf("Inquire(class) = %d", len(got))
	}
	got, _ := ix.Inquire(Inquiry{Class: "c.two", Producer: "other-producer"})
	if len(got) != 1 || got[0].ID != "evt-5" {
		t.Errorf("Inquire(class+producer) = %+v", got)
	}
	// Full scan path.
	if got, _ := ix.Inquire(Inquiry{Producer: "hospital"}); len(got) != 5 {
		t.Errorf("Inquire(producer only) = %d", len(got))
	}
	if got, _ := ix.Inquire(Inquiry{}); len(got) != 6 {
		t.Errorf("Inquire(all) = %d", len(got))
	}
}

func TestInquireTimeWindow(t *testing.T) {
	ix := newIndex(t)
	for i := 0; i < 10; i++ {
		ix.Put(notif(fmt.Sprintf("evt-%d", i), "P", "c.x", t0.Add(time.Duration(i)*time.Hour)))
	}
	got, err := ix.Inquire(Inquiry{PersonID: "P", From: t0.Add(3 * time.Hour), To: t0.Add(6 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("window = %d results", len(got))
	}
	if got[0].ID != "evt-3" || got[3].ID != "evt-6" {
		t.Errorf("window bounds = %s..%s", got[0].ID, got[3].ID)
	}
	// Window on the class path and the scan path.
	if got, _ := ix.Inquire(Inquiry{Class: "c.x", From: t0.Add(8 * time.Hour)}); len(got) != 2 {
		t.Errorf("class window = %d", len(got))
	}
	if got, _ := ix.Inquire(Inquiry{To: t0}); len(got) != 1 {
		t.Errorf("scan window = %d", len(got))
	}
}

func TestInquireLimit(t *testing.T) {
	ix := newIndex(t)
	for i := 0; i < 10; i++ {
		ix.Put(notif(fmt.Sprintf("evt-%d", i), "P", "c.x", t0.Add(time.Duration(i)*time.Minute)))
	}
	for _, q := range []Inquiry{
		{PersonID: "P", Limit: 3},
		{Class: "c.x", Limit: 3},
		{Limit: 3},
	} {
		if got, _ := ix.Inquire(q); len(got) != 3 {
			t.Errorf("Limit ignored for %+v: %d", q, len(got))
		}
	}
}

func TestLen(t *testing.T) {
	ix := newIndex(t)
	for i := 0; i < 7; i++ {
		ix.Put(notif(fmt.Sprintf("evt-%d", i), "P", "c.x", t0))
	}
	// Idempotent overwrite of the same id does not grow the index.
	ix.Put(notif("evt-0", "P", "c.x", t0))
	if n, _ := ix.Len(); n != 7 {
		t.Errorf("Len = %d", n)
	}
}

func TestDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.wal")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := New(st, keyring(t))
	ix.Put(notif("evt-1", "PRS-1", "c.x", t0))
	st.Close()

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ix2 := New(st2, keyring(t))
	got, err := ix2.Get("evt-1")
	if err != nil || got.PersonID != "PRS-1" {
		t.Errorf("after reopen: %+v, %v", got, err)
	}
	if res, _ := ix2.Inquire(Inquiry{PersonID: "PRS-1"}); len(res) != 1 {
		t.Error("person index lost after reopen")
	}
}

func TestWrongKeyringCannotRead(t *testing.T) {
	st := store.OpenMemory()
	ix := New(st, keyring(t))
	ix.Put(notif("evt-1", "PRS-1", "c.x", t0))

	other, err := crypto.NewKeyring(bytes.Repeat([]byte{9}, crypto.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	ix2 := New(st, other)
	if _, err := ix2.Get("evt-1"); err == nil {
		t.Error("Get under wrong keyring succeeded")
	}
	// And the pseudonym differs, so the person index finds nothing.
	if res, _ := ix2.Inquire(Inquiry{PersonID: "PRS-1"}); len(res) != 0 {
		t.Errorf("wrong-key inquiry = %d results", len(res))
	}
}

// TestPutAtomicityAcrossCrash asserts the all-or-nothing guarantee of
// the batched Put: truncating the WAL at any byte boundary inside the
// last Put's frame (the crash model) recovers either the full set —
// primary record plus person and class index keys — or none of it.
// Before the batch rewrite, a crash between the four store puts could
// leave a primary record without its secondary keys (or, on replay of a
// torn multi-record sequence, secondary keys pointing at nothing).
func TestPutAtomicityAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.wal")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := keyring(t)
	ix := New(st, keys)
	if err := ix.Put(notif("evt-settled", "PRS-0001", "hospital.blood-test", t0)); err != nil {
		t.Fatal(err)
	}
	settledSize := walSize(t, path)
	if err := ix.Put(notif("evt-torn", "PRS-0002", "hospital.blood-test", t0.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	st.Close()
	full := walSize(t, path)

	for cut := settledSize; cut <= full; cut++ {
		torn := filepath.Join(t.TempDir(), "torn.wal")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(torn, data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		rst, err := store.Open(torn, store.Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		rix := New(rst, keys)

		// The settled event is always fully present.
		if _, err := rix.Get("evt-settled"); err != nil {
			t.Fatalf("cut %d: settled event lost: %v", cut, err)
		}
		// The torn event is either fully present or fully absent.
		_, getErr := rix.Get("evt-torn")
		entries := secondaryEntries(t, rst, "evt-torn")
		switch {
		case getErr == nil && entries == 2: // fully applied
		case errors.Is(getErr, ErrNotFound) && entries == 0: // fully dropped
		default:
			t.Fatalf("cut %d: partial index state: get=%v secondaries=%d", cut, getErr, entries)
		}
		rst.Close()
	}
}

func walSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// secondaryEntries counts the index keys that end in the given event id:
// the person and class keys, and the producer key earlier builds wrote.
func secondaryEntries(t *testing.T, st *store.Store, id string) int {
	t.Helper()
	count := 0
	for _, prefix := range []string{"p/", "c/", "s/"} {
		err := st.AscendPrefix(prefix, func(k string, v []byte) bool {
			if strings.HasSuffix(k, "/"+id) {
				count++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return count
}
