package index

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/event"
)

func TestGetCachesDecodedNotification(t *testing.T) {
	ix := newIndex(t)
	var hits, misses int
	ix.SetCacheObserver(func(cache string, hit bool) {
		if cache != "index.notification" {
			return
		}
		if hit {
			hits++
		} else {
			misses++
		}
	})
	if err := ix.Put(notif("evt-1", "PRS-1", "c.x", t0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ix.Get("evt-1"); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	if misses != 1 || hits != 2 {
		t.Errorf("notification cache: %d misses / %d hits, want 1/2", misses, hits)
	}
}

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
		t.Errorf("caller mutation leaked into the cache: %q", b.Summary)
	}
	if a == b {
		t.Error("two Get calls returned the same *Notification instance")
	}
}

func TestPutInvalidatesCachedNotification(t *testing.T) {
	ix := newIndex(t)
	n := notif("evt-1", "PRS-1", "c.x", t0)
	if err := ix.Put(n); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Get("evt-1"); err != nil { // fill the cache
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
		t.Errorf("Get after re-Put = %q, want the amended record (stale cache)", got.Summary)
	}
}

func TestPseudonymCacheAvoidsRecomputation(t *testing.T) {
	ix := newIndex(t)
	var hits, misses int
	ix.SetCacheObserver(func(cache string, hit bool) {
		if cache != "index.pseudonym" {
			return
		}
		if hit {
			hits++
		} else {
			misses++
		}
	})
	for i := 0; i < 4; i++ {
		if err := ix.Put(notif(string(rune('a'+i))+"-evt", "PRS-SAME", "c.x", t0)); err != nil {
			t.Fatal(err)
		}
	}
	if misses != 1 || hits != 3 {
		t.Errorf("pseudonym cache: %d misses / %d hits, want 1/3", misses, hits)
	}
	// Same person must keep mapping to one pseudonym: all four events are
	// found under a single person inquiry.
	ns, err := ix.Inquire(Inquiry{PersonID: "PRS-SAME"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 4 {
		t.Errorf("person inquiry found %d notifications, want 4", len(ns))
	}
}

func TestInquireWarmPathUsesNotificationCache(t *testing.T) {
	ix := newIndex(t)
	for i := 0; i < 3; i++ {
		if err := ix.Put(notif(string(rune('a'+i))+"-evt", "PRS-1", "c.x", t0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.Inquire(Inquiry{PersonID: "PRS-1"}); err != nil { // cold: fills
		t.Fatal(err)
	}
	var hits int
	ix.SetCacheObserver(func(cache string, hit bool) {
		if cache == "index.notification" && hit {
			hits++
		}
	})
	ns, err := ix.Inquire(Inquiry{PersonID: "PRS-1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 3 || hits != 3 {
		t.Errorf("warm inquiry: %d notifications, %d cache hits, want 3/3", len(ns), hits)
	}
}

// TestInquireStopsAtTo: a bounded inquiry ends at the first key past To
// without looking that record up — the notification lookups an observer
// counts are exactly the results — and returns what a linear filter
// over all 5 000 events returns, in key order, also when To is an
// event's own instant, lies before 1970 (where keys do not sort by
// time) or cannot be expressed in nanoseconds.
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
	lookups := 0
	ix.SetCacheObserver(func(cache string, hit bool) {
		if cache == "index.notification" {
			lookups++
		}
	})
	for _, tc := range []struct {
		name    string
		q       Inquiry
		counted bool // every lookup is a result
	}{
		{"person window", Inquiry{PersonID: "PRS-3", From: t0.Add(6 * time.Hour), To: t0.Add(18*time.Hour + time.Second)}, true},
		{"class window", Inquiry{Class: "c1.x", From: t0.Add(time.Hour), To: t0.Add(30 * time.Hour)}, true},
		{"To is an event's instant", Inquiry{PersonID: "PRS-4", From: t0, To: all[704].OccurredAt}, true},
		{"To before every event since 1970", Inquiry{Class: "c2.x", From: t0.Add(-time.Hour), To: t0.Add(-time.Minute)}, true},
		{"To before 1970", Inquiry{PersonID: "PRS-5", To: time.Date(1969, 6, 2, 0, 0, 0, 0, time.UTC)}, false},
		{"To beyond UnixNano", Inquiry{PersonID: "PRS-6", From: t0, To: time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)}, true},
	} {
		lookups = 0
		got, err := ix.Inquire(tc.q)
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
		if tc.counted && lookups != len(got) {
			t.Errorf("%s: %d notification lookups for %d results", tc.name, lookups, len(got))
		}
	}
	got, _ := ix.Inquire(Inquiry{PersonID: "PRS-4", From: t0, To: all[704].OccurredAt})
	if len(got) == 0 || got[len(got)-1].ID != all[704].ID {
		t.Errorf("the event at exactly To is not the last result")
	}
}
