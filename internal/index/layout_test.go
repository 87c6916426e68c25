package index

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/store"
)

// putEarlierLayout writes n the way earlier builds did: the record, and
// person, class and producer keys whose values repeat the event id.
func putEarlierLayout(t *testing.T, ix *Index, n *event.Notification) {
	t.Helper()
	sealed, err := ix.keys.Seal([]byte(n.PersonID))
	if err != nil {
		t.Fatal(err)
	}
	ts, id := timeKey(n.OccurredAt), []byte(n.ID)
	var b store.Batch
	b.Put(eventKey(n.ID), appendRecordJSON(n, sealed))
	b.Put(personIdxKey(ix.keys.Pseudonym(n.PersonID), ts, n.ID), id)
	b.Put(classIdxKey(n.Class, ts, n.ID), id)
	b.Put("s/"+string(n.Producer)+"/"+string(n.ID), id)
	if err := ix.st.Apply(&b); err != nil {
		t.Fatal(err)
	}
}

// TestEarlierLayoutStore: an index store written by an earlier build —
// id-valued secondary keys and a producer key — answers Get and person
// and class inquiries exactly as one written by PutStaged; a reshard
// sweep leaves no key of a moved event, the producer key included; and
// a handoff of its events lands in the current layout.
func TestEarlierLayoutStore(t *testing.T) {
	keys := keyring(t)
	earlier, current := New(store.OpenMemory(), keys), New(store.OpenMemory(), keys)
	var all []*event.Notification
	for i := 0; i < 30; i++ {
		n := notif(fmt.Sprintf("evt-%02d", i), fmt.Sprintf("PRS-%d", i%3),
			event.ClassID(fmt.Sprintf("c%d.x", i%2)), t0.Add(time.Duration(i)*time.Hour))
		putEarlierLayout(t, earlier, n)
		if err := current.Put(n); err != nil {
			t.Fatal(err)
		}
		all = append(all, n)
	}

	for _, n := range all {
		a, errA := earlier.Get(n.ID)
		b, errB := current.Get(n.ID)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Errorf("Get(%s): earlier layout %+v, %v; current %+v, %v", n.ID, a, errA, b, errB)
		}
	}
	for _, q := range []Inquiry{
		{PersonID: "PRS-0"}, {PersonID: "PRS-2", From: t0.Add(5 * time.Hour), To: t0.Add(20 * time.Hour)},
		{Class: "c1.x"}, {Class: "c0.x", Limit: 4}, {PersonID: "PRS-9"},
	} {
		a, errA := earlier.Inquire(q)
		b, errB := current.Inquire(q)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Errorf("Inquire(%+v): earlier layout %d results, %v; current %d, %v", q, len(a), errA, len(b), errB)
		}
	}

	movedPseud := keys.Pseudonym("PRS-1")
	moved := func(p string) bool { return p == movedPseud }
	recipient := New(store.OpenMemory(), keys)
	count, gids, err := earlier.ExportMoved(moved, func(_ event.GlobalID, _ string, b *store.Batch) error {
		return recipient.ApplyHandoff(b)
	})
	if err != nil || count != 10 {
		t.Fatalf("ExportMoved = %d, %v; want 10 events", count, err)
	}
	want := map[string]bool{}
	for _, gid := range gids {
		n, err := current.Get(gid)
		if err != nil {
			t.Fatal(err)
		}
		ts := timeKey(n.OccurredAt)
		want[eventKey(gid)] = true
		want[personIdxKey(movedPseud, ts, gid)] = true
		want[classIdxKey(n.Class, ts, gid)] = true
	}
	recipient.st.AscendPrefix("", func(k string, v []byte) bool {
		if !want[k] || (k[:2] != "e/" && len(v) != 0) {
			t.Errorf("handoff wrote %q = %q", k, v)
		}
		delete(want, k)
		return true
	})
	if len(want) != 0 {
		t.Errorf("handoff did not write %v", want)
	}

	swept, err := earlier.SweepMoved(moved)
	if err != nil || len(swept) != 10 {
		t.Fatalf("SweepMoved = %d ids, %v; want 10", len(swept), err)
	}
	left := 0
	earlier.st.AscendPrefix("", func(k string, v []byte) bool {
		left++
		for _, gid := range swept {
			if strings.HasSuffix(k, "/"+string(gid)) {
				t.Errorf("sweep left %q", k)
			}
		}
		return true
	})
	if left != 4*20 {
		t.Errorf("sweep left %d keys, want the 4 of each of 20 events", left)
	}
}
