package core_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/testsupport"
	"repro/internal/workload"
)

// TestControllerStress drives publishers, detail requesters, policy churn
// and consent churn concurrently and asserts the end-state invariants:
// counters reconcile, the audit chain verifies, and no released detail
// ever violated privacy safety (checked inline by requesters).
func TestControllerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c, err := core.New(core.Config{DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	platform, err := workload.Provision(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.StandardPolicies(); err != nil {
		t.Fatal(err)
	}

	const (
		producers   = 4
		perStream   = 150
		requesters  = 4
		churners    = 2
		subChurners = 2
	)

	// Shared pool of published events.
	var mu sync.Mutex
	type published struct {
		gid   event.GlobalID
		class event.ClassID
	}
	var pool []published

	var wg sync.WaitGroup
	var violations atomic.Int64

	// Publishers.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Config{Seed: int64(p), People: 50})
			for i := 0; i < perStream; i++ {
				n, d := gen.Next()
				gid, err := platform.Produce(n, d)
				if err != nil {
					t.Errorf("produce: %v", err)
					return
				}
				mu.Lock()
				pool = append(pool, published{gid, n.Class})
				mu.Unlock()
			}
		}(p)
	}

	// Requesters: pull random events as the family doctor, verify
	// privacy safety of every permitted response.
	allowedByClass := map[event.ClassID]map[event.FieldName]bool{}
	for _, pol := range c.Policies("hospital-s-maria") {
		addAllowed(allowedByClass, pol)
	}
	for _, prod := range workload.Producers() {
		for _, pol := range c.Policies(prod.ID) {
			if pol.Actor == "family-doctor" {
				addAllowed(allowedByClass, pol)
			}
		}
	}
	for r := 0; r < requesters; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				mu.Lock()
				var pick *published
				if len(pool) > 0 {
					p := pool[(r*perStream+i)%len(pool)]
					pick = &p
				}
				mu.Unlock()
				if pick == nil {
					time.Sleep(time.Millisecond)
					continue
				}
				d, err := c.RequestDetails(&event.DetailRequest{
					Requester: "family-doctor", Class: pick.class,
					EventID: pick.gid, Purpose: event.PurposeHealthcareTreatment,
				})
				if err != nil {
					continue // denial is fine (consent/policy churn)
				}
				// The doctor's standard policies never include the
				// obfuscated blood-test fields.
				if pick.class == schema.ClassBloodTest {
					if _, leak := d.Get("aids-test"); leak {
						violations.Add(1)
					}
				}
			}
		}(r)
	}

	// Churners: consent flip-flops and throwaway policy add/revoke.
	for ch := 0; ch < churners; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				person := fmt.Sprintf("PRS-%06d", i%50+1)
				if _, err := c.RecordConsent(consent.Directive{
					PersonID: person, Allow: i%2 == 0,
					Scope: consent.Scope{Consumer: event.Actor(fmt.Sprintf("churn-org-%d", ch))},
				}); err != nil {
					t.Errorf("consent: %v", err)
					return
				}
				stored, err := c.DefinePolicy(&policy.Policy{
					Producer: "telecare-co",
					Actor:    event.Actor(fmt.Sprintf("churn-org-%d-%d", ch, i)),
					Class:    schema.ClassTelecare,
					Purposes: []event.Purpose{event.PurposeAdministration},
					Fields:   []event.FieldName{"patient-id"},
				})
				if err != nil {
					t.Errorf("define: %v", err)
					return
				}
				if err := c.RevokePolicy(stored.ID); err != nil {
					t.Errorf("revoke: %v", err)
					return
				}
			}
		}(ch)
	}

	// Subscription churners: repeatedly subscribe and cancel while the
	// publishers are fanning out, so deliveries race subscription
	// setup/teardown and every handler reads the shared notification
	// instance concurrently with its siblings (the zero-copy fan-out
	// contract: shared and immutable — the race detector enforces it).
	var deliveries atomic.Int64
	for sc := 0; sc < subChurners; sc++ {
		wg.Add(1)
		go func(sc int) {
			defer wg.Done()
			for i := 0; i < perStream/3; i++ {
				sub, err := c.Subscribe("family-doctor", schema.ClassBloodTest, func(n *event.Notification) {
					if n.ID == "" || n.PersonID == "" {
						violations.Add(1) // redacted fan-out must keep these
					}
					if n.SourceID != "" {
						violations.Add(1) // Redact() must have stripped it
					}
					deliveries.Add(1)
				})
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				if err := sub.Cancel(); err != nil {
					t.Errorf("cancel: %v", err)
					return
				}
			}
		}(sc)
	}

	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d privacy violations under concurrency", violations.Load())
	}
	reg := c.Metrics()
	if got := testsupport.CounterValue(reg, "css_publish_total"); got != producers*perStream {
		t.Errorf("css_publish_total = %d, want %d", got, producers*perStream)
	}
	if testsupport.CounterValue(reg, "css_detail_decisions_total", "permit")+testsupport.CounterValue(reg, "css_detail_decisions_total", "deny") == 0 {
		t.Error("no detail requests recorded")
	}
	if err := c.Audit().Verify(); err != nil {
		t.Errorf("audit chain after stress: %v", err)
	}
	// Churned policies are all gone: whatever the standard set installed
	// for telecare, no churn-org policy may remain.
	for _, p := range c.Policies("telecare-co") {
		if strings.HasPrefix(string(p.Actor), "churn-org") {
			t.Errorf("leftover churn policy %s", p.ID)
		}
	}
}

func addAllowed(m map[event.ClassID]map[event.FieldName]bool, pol *policy.Policy) {
	set := m[pol.Class]
	if set == nil {
		set = map[event.FieldName]bool{}
		m[pol.Class] = set
	}
	for _, f := range pol.Fields {
		set[f] = true
	}
}
