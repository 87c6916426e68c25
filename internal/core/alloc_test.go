//go:build !race

// The race detector inflates allocation counts, and `make race` runs
// the whole tree, so the budget is asserted only in uninstrumented runs.

package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/policy"
	"repro/internal/schema"
)

// TestPublishAllocBudget is the allocation-regression gate of the
// publish path: one publish through the full pipeline (validate, assign
// id, encrypt+index, audit, route) to 16 callback subscribers, all 16
// deliveries awaited. Allocation counts belong to the code path, not to
// the machine (unlike wall-clock), so the budget holds anywhere. The
// path reads 21–23 from run to run (60 readings, both codecs, -count
// 30); the budget is the highest reading plus the ±2 the goroutine
// scheduling of the 16 deliveries adds. The bus carries the notification
// itself, so Config.Codec is not read: the two rows run the same path,
// and a codec-dependent cost creeping back into publish shows up as a
// difference between them. The entries a publish stores are copied into
// the memtable's arena and cost no allocation of their own beyond the
// arena's next chunk, once in about 700 publishes.
func TestPublishAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		codec  event.Codec
		budget float64
	}{
		{event.XML, 25},
		{event.Binary, 25},
	} {
		t.Run(tc.codec.Name(), func(t *testing.T) {
			c, err := New(Config{DefaultConsent: true, Codec: tc.codec})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.RegisterProducer("hospital", "H"); err != nil {
				t.Fatal(err)
			}
			if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
				t.Fatal(err)
			}
			if err := c.RegisterConsumer("org", "O"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.DefinePolicy(&policy.Policy{
				Producer: "hospital", Actor: "org", Class: schema.ClassBloodTest,
				Purposes: []event.Purpose{"care"}, Fields: []event.FieldName{"patient-id"},
			}); err != nil {
				t.Fatal(err)
			}
			const subs = 16
			var wg sync.WaitGroup
			for i := 0; i < subs; i++ {
				if _, err := c.Subscribe(event.Actor(fmt.Sprintf("org/d%02d", i)), schema.ClassBloodTest,
					func(*event.Notification) { wg.Done() }); err != nil {
					t.Fatal(err)
				}
			}
			seq := 0
			publish := func() {
				seq++
				wg.Add(subs)
				if _, err := c.Publish(&event.Notification{
					SourceID: event.SourceID(fmt.Sprintf("s-%09d", seq)), Class: schema.ClassBloodTest,
					PersonID: "PRS-1", OccurredAt: time.Now(), Producer: "hospital",
				}); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
			}
			// A GC emptying the codec pools or another test's leftover
			// goroutine only ever adds allocations, so the lowest of five
			// rounds is the path's own count.
			got := math.Inf(1)
			for round := 0; round < 5; round++ {
				got = min(got, testing.AllocsPerRun(200, publish))
			}
			t.Logf("%s: %.0f allocs/op (budget %.0f)", tc.codec.Name(), got, tc.budget)
			if got > tc.budget {
				t.Errorf("publish allocates %.0f/op with the %s codec, budget %.0f", got, tc.codec.Name(), tc.budget)
			}
		})
	}
}

// TestClusteredPublishAllocBudget pins the garbage of a publish on one
// shard of a 3-shard map, with no subscribers: shard admission, the id
// mint and the writes. A shard mints only ids its map assigns to it, so
// it draws about three ids per publish; the draws it discards must cost
// no allocation. The budget is the count measured: the person's
// pseudonym is computed once, by shard admission, and the index put
// reuses it.
func TestClusteredPublishAllocBudget(t *testing.T) {
	const budget = 20
	m := threeShards(t)
	c, err := New(Config{DefaultConsent: true, MasterKey: clusterKey, ShardMap: m, ShardID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterProducer("hospital", "H"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	person := ownedPerson(t, c, m, 1, 0)
	seq := 0
	publish := func() {
		seq++
		if _, err := c.Publish(&event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("s-%09d", seq)), Class: schema.ClassBloodTest,
			PersonID: person, OccurredAt: time.Now(), Producer: "hospital",
		}); err != nil {
			t.Fatal(err)
		}
	}
	got := math.Inf(1)
	for round := 0; round < 5; round++ {
		got = min(got, testing.AllocsPerRun(200, publish))
	}
	t.Logf("clustered publish: %.0f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("clustered publish allocates %.0f/op, budget %d", got, budget)
	}
}
