package index

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/event"
)

func TestGetReturnsPrivateClones(t *testing.T) {
	ix := newIndex(t)
	if err := ix.Put(notif("evt-1", "PRS-1", "c.x", t0)); err != nil {
		t.Fatal(err)
	}
	a, err := ix.Get("evt-1")
	if err != nil {
		t.Fatal(err)
	}
	a.Summary = "tampered by caller"
	b, err := ix.Get("evt-1")
	if err != nil {
		t.Fatal(err)
	}
	if b.Summary != "something happened" {
		t.Errorf("caller mutation leaked into a later Get: %q", b.Summary)
	}
	if a == b {
		t.Error("two Get calls returned the same *Notification instance")
	}
}

func TestRePutServesAmendedRecord(t *testing.T) {
	ix := newIndex(t)
	n := notif("evt-1", "PRS-1", "c.x", t0)
	if err := ix.Put(n); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Get("evt-1"); err != nil {
		t.Fatal(err)
	}
	updated := notif("evt-1", "PRS-1", "c.x", t0)
	updated.Summary = "amended report"
	if err := ix.Put(updated); err != nil {
		t.Fatal(err)
	}
	got, err := ix.Get("evt-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary != "amended report" {
		t.Errorf("Get after re-Put = %q, want the amended record", got.Summary)
	}
}

// TestInquireStopsAtTo: a bounded inquiry ends at the first key past To
// without reading that record — the record is overwritten with bytes
// that do not decode, so reading it would fail the inquiry — and returns
// what a linear filter over all 5 000 events returns, in key order, also
// when To is an event's own instant, lies before 1970 (where keys do not
// sort by time) or cannot be expressed in nanoseconds.
func TestInquireStopsAtTo(t *testing.T) {
	ix := newIndex(t)
	var all []*event.Notification
	for i := 0; i < 5000; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		if i%10 == 0 {
			at = time.Date(1969, 6, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute)
		}
		n := notif(fmt.Sprintf("evt-%05d", i), fmt.Sprintf("PRS-%d", i%7), event.ClassID(fmt.Sprintf("c%d.x", i%3)), at)
		if err := ix.Put(n); err != nil {
			t.Fatal(err)
		}
		all = append(all, n)
	}
	// firstPast returns the event whose index key under q's prefix is the
	// first one past To: the record a scan that does not stop would read
	// next.
	firstPast := func(q Inquiry) *event.Notification {
		toKey := timeKey(q.To)
		var first *event.Notification
		firstKey := ""
		for _, n := range all {
			if (q.PersonID != "" && n.PersonID != q.PersonID) || (q.Class != "" && n.Class != q.Class) {
				continue
			}
			ts := timeKey(n.OccurredAt)
			if k := ts + "/" + string(n.ID); ts > toKey && (first == nil || k < firstKey) {
				first, firstKey = n, k
			}
		}
		return first
	}
	for _, tc := range []struct {
		name  string
		q     Inquiry
		stops bool // the scan stops at the first key past To
	}{
		{"person window", Inquiry{PersonID: "PRS-3", From: t0.Add(6 * time.Hour), To: t0.Add(18*time.Hour + time.Second)}, true},
		{"class window", Inquiry{Class: "c1.x", From: t0.Add(time.Hour), To: t0.Add(30 * time.Hour)}, true},
		{"To is an event's instant", Inquiry{PersonID: "PRS-4", From: t0, To: all[704].OccurredAt}, true},
		{"To before every event since 1970", Inquiry{Class: "c2.x", From: t0.Add(-time.Hour), To: t0.Add(-time.Minute)}, true},
		{"To before 1970", Inquiry{PersonID: "PRS-5", To: time.Date(1969, 6, 2, 0, 0, 0, 0, time.UTC)}, false},
		{"To beyond UnixNano", Inquiry{PersonID: "PRS-6", From: t0, To: time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)}, false},
	} {
		var restore func()
		if tc.stops {
			past := firstPast(tc.q)
			if past == nil {
				t.Fatalf("%s: no event past To", tc.name)
			}
			k := eventKey(past.ID)
			raw, _, err := ix.st.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.st.Put(k, []byte("not a record")); err != nil {
				t.Fatal(err)
			}
			restore = func() {
				if err := ix.st.Put(k, raw); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := ix.Inquire(tc.q)
		if restore != nil {
			restore()
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var want []*event.Notification
		for _, n := range all {
			if matches(n, tc.q) {
				want = append(want, n)
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			return timeKey(want[i].OccurredAt) < timeKey(want[j].OccurredAt)
		})
		if len(got) != len(want) {
			t.Errorf("%s: %d results, a linear filter finds %d", tc.name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Errorf("%s: result %d is %s, want %s", tc.name, i, got[i].ID, want[i].ID)
				break
			}
		}
	}
	got, _ := ix.Inquire(Inquiry{PersonID: "PRS-4", From: t0, To: all[704].OccurredAt})
	if len(got) == 0 || got[len(got)-1].ID != all[704].ID {
		t.Errorf("the event at exactly To is not the last result")
	}
}
