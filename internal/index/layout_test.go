package index

import (
	"fmt"
	"reflect"
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
// and class inquiries exactly as one written by PutStaged.
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
}
