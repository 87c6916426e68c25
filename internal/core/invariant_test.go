package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/workload"
)

// TestQuickSystemPrivacySafety is the system-level statement of the
// paper's central guarantee: for random event streams, random elicited
// policies and random requests, every detail response the platform
// releases is privacy safe (Definition 4) with respect to the most
// specific matching policy, and every request without a matching policy
// is denied. This exercises the full pipeline — catalog, idmap, index,
// PDP, gateway — not the filter function in isolation. A parallel
// policy.Repository serves as the Definition-3 oracle.
func TestQuickSystemPrivacySafety(t *testing.T) {
	consumers := []event.Actor{"org-a", "org-a/dept", "org-b", "org-c"}
	purposes := []event.Purpose{"care", "stats", "admin"}

	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		c, err := core.New(core.Config{DefaultConsent: true})
		if err != nil {
			return false
		}
		defer c.Close()
		platform, err := workload.Provision(c)
		if err != nil {
			return false
		}
		for _, cons := range consumers {
			c.RegisterConsumer(cons, "synthetic")
		}

		domain := schema.Domain()
		owner := map[event.ClassID]event.ProducerID{}
		for _, p := range workload.Producers() {
			for _, s := range p.Classes {
				owner[s.Class()] = p.ID
			}
		}
		oracle := policy.NewRepository()
		nPolicies := 1 + rnd.Intn(6)
		for i := 0; i < nPolicies; i++ {
			s := domain[rnd.Intn(len(domain))]
			fields := s.FieldNames()
			var chosen []event.FieldName
			for _, fname := range fields {
				if rnd.Intn(2) == 0 {
					chosen = append(chosen, fname)
				}
			}
			if len(chosen) == 0 {
				chosen = fields[:1]
			}
			pol := &policy.Policy{
				Producer: owner[s.Class()],
				Actor:    consumers[rnd.Intn(len(consumers))],
				Class:    s.Class(),
				Purposes: []event.Purpose{purposes[rnd.Intn(len(purposes))]},
				Fields:   chosen,
			}
			stored, err := c.DefinePolicy(pol)
			if err != nil {
				return false
			}
			// Mirror the stored policy (same ID and CreatedAt) in the oracle.
			if _, err := oracle.Add(stored); err != nil {
				return false
			}
		}

		gen := workload.NewGenerator(workload.Config{Seed: seed, People: 30})
		type ev struct {
			gid   event.GlobalID
			class event.ClassID
		}
		var stream []ev
		for i := 0; i < 20; i++ {
			n, d := gen.Next()
			gid, err := platform.Produce(n, d)
			if err != nil {
				return false
			}
			stream = append(stream, ev{gid, n.Class})
		}

		for i := 0; i < 30; i++ {
			e := stream[rnd.Intn(len(stream))]
			req := &event.DetailRequest{
				Requester: consumers[rnd.Intn(len(consumers))],
				Class:     e.class,
				EventID:   e.gid,
				Purpose:   purposes[rnd.Intn(len(purposes))],
				At:        time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC),
			}
			matchedID, matchedFields, matchErr := oracle.MatchFields(req)
			d, err := c.RequestDetails(req)
			if matchErr != nil {
				if !errors.Is(err, enforcer.ErrDenied) {
					t.Logf("seed %d: expected deny, got %v", seed, err)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("seed %d: matched policy %s but denied: %v", seed, matchedID, err)
				return false
			}
			if !d.ExposesOnly(matchedFields) {
				t.Logf("seed %d: response exposes beyond policy %s: %v vs %v",
					seed, matchedID, d.FieldNames(), matchedFields)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickRoutingAuthorization: subscriptions succeed exactly for the
// classes the consumer holds an authorizing policy on, whatever the
// random grant assignment — deny-by-default at the routing layer.
func TestQuickRoutingAuthorization(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		c, err := core.New(core.Config{DefaultConsent: true})
		if err != nil {
			return false
		}
		defer c.Close()
		if err := c.RegisterProducer("prod", "P"); err != nil {
			return false
		}
		nClasses := 2 + rnd.Intn(3)
		var classes []event.ClassID
		for i := 0; i < nClasses; i++ {
			s := schema.MustNew(event.ClassID(fmt.Sprintf("c%d.x", i)), 1, "d",
				schema.Field{Name: "patient-id", Type: schema.String, Required: true})
			if err := c.DeclareClass("prod", s); err != nil {
				return false
			}
			classes = append(classes, s.Class())
		}
		if err := c.RegisterConsumer("org", "O"); err != nil {
			return false
		}
		granted := map[event.ClassID]bool{}
		for _, class := range classes {
			if rnd.Intn(2) == 0 {
				granted[class] = true
				if _, err := c.DefinePolicy(&policy.Policy{
					Producer: "prod", Actor: "org", Class: class,
					Purposes: []event.Purpose{"care"},
					Fields:   []event.FieldName{"patient-id"},
				}); err != nil {
					return false
				}
			}
		}
		for _, class := range classes {
			_, err := c.Subscribe("org", class, func(*event.Notification) {})
			if granted[class] && err != nil {
				return false
			}
			if !granted[class] && !errors.Is(err, core.ErrSubscriptionDeny) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
