package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// runE10 demonstrates temporal decoupling: details stay retrievable from
// the local cooperation gateway months after publication, across producer
// restarts, with outcomes governed by the policies' validity windows.
func runE10(w io.Writer, quick bool) {
	events := pick(quick, 50, 500)
	dir, err := os.MkdirTemp("", "css-e10-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	now := time.Date(2010, 1, 15, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }

	ctrl, err := core.New(core.Config{DefaultConsent: true, DataDir: dir, Now: clock,
		MasterKey: benchKeyringMaster()})
	if err != nil {
		log.Fatal(err)
	}
	if err := ctrl.RegisterProducer("hospital", "H"); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("family-doctor", "D"); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("caring-coop", "Coop"); err != nil {
		log.Fatal(err)
	}
	gwStore, err := store.Open(dir+"/gw.wal", store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	gw, err := gateway.New("hospital", gwStore, ctrl.Catalog())
	if err != nil {
		log.Fatal(err)
	}
	if err := ctrl.AttachGateway("hospital", gw); err != nil {
		log.Fatal(err)
	}
	// Unbounded policy for the doctor; contract-bounded for the coop.
	if _, err := ctrl.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := ctrl.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "caring-coop", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeSocialAssistance},
		Fields:   []event.FieldName{"patient-id"},
		NotAfter: time.Date(2010, 12, 31, 23, 59, 59, 0, time.UTC),
	}); err != nil {
		log.Fatal(err)
	}

	gids := make([]event.GlobalID, events)
	for i := range gids {
		src := event.SourceID(fmt.Sprintf("src-%06d", i))
		d := event.NewDetail(schema.ClassBloodTest, src, "hospital").
			Set("patient-id", fmt.Sprintf("PRS-%04d", i)).
			Set("exam-date", "2010-01-15").
			Set("hemoglobin", "13.0")
		if err := gw.Persist(d); err != nil {
			log.Fatal(err)
		}
		gid, err := ctrl.Publish(&event.Notification{
			SourceID: src, Class: schema.ClassBloodTest,
			PersonID: fmt.Sprintf("PRS-%04d", i), Summary: "blood test",
			OccurredAt: now, Producer: "hospital",
		})
		if err != nil {
			log.Fatal(err)
		}
		gids[i] = gid
	}

	// "The source system goes offline": only the gateway store survives.
	// Simulate by restarting the whole producer side (close + reopen).
	gwStore.Close()

	tbl := newTable(w, "request lag", "requester", "success", "denied (contract)")
	for _, lag := range []struct {
		name string
		d    time.Duration
	}{
		{"1 day", 24 * time.Hour},
		{"1 month", 30 * 24 * time.Hour},
		{"6 months", 182 * 24 * time.Hour},
		{"2 years", 730 * 24 * time.Hour},
	} {
		now = time.Date(2010, 1, 15, 9, 0, 0, 0, time.UTC).Add(lag.d)
		// Producer restart at each epoch: reopen the gateway from disk.
		st, err := store.Open(dir+"/gw.wal", store.Options{})
		if err != nil {
			log.Fatal(err)
		}
		gw2, err := gateway.New("hospital", st, ctrl.Catalog())
		if err != nil {
			log.Fatal(err)
		}
		if err := ctrl.AttachGateway("hospital", gw2); err != nil {
			log.Fatal(err)
		}

		for _, who := range []struct {
			actor   event.Actor
			purpose event.Purpose
		}{
			{"family-doctor", event.PurposeHealthcareTreatment},
			{"caring-coop", event.PurposeSocialAssistance},
		} {
			ok, denied := 0, 0
			for _, gid := range gids {
				_, err := ctrl.RequestDetails(&event.DetailRequest{
					Requester: who.actor, Class: schema.ClassBloodTest,
					EventID: gid, Purpose: who.purpose,
				})
				if err != nil {
					denied++
				} else {
					ok++
				}
			}
			tbl.row(lag.name, who.actor, ok, denied)
		}
		st.Close()
	}
	tbl.flush()
	ctrl.Close()
	fmt.Fprintln(w, "shape: the doctor retrieves 100% at any lag (gateway persistence survives")
	fmt.Fprintln(w, "producer restarts); the cooperative loses access once its contract expires —")
	fmt.Fprintln(w, "requests months after publication resolve per the policy at request time.")
}

func benchKeyringMaster() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	return key
}

// runE11 checks subscription authorization: the §5.2 deny-by-default
// decision over a granted and an ungranted population, as the policy
// repository grows.
func runE11(w io.Writer, quick bool) {
	attempts := pick(quick, 500, 2000)

	tbl := newTable(w, "policies", "granted (has policy)", "denied (no policy)")
	for _, nPolicies := range pick(quick, []int{10, 1000}, []int{10, 100, 1000, 10000}) {
		ctrl, err := core.New(core.Config{DefaultConsent: true})
		if err != nil {
			log.Fatal(err)
		}
		if err := ctrl.RegisterProducer("hospital", "H"); err != nil {
			log.Fatal(err)
		}
		if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
			log.Fatal(err)
		}
		if err := ctrl.RegisterConsumer("org", "Org"); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < nPolicies; i++ {
			if _, err := ctrl.DefinePolicy(&policy.Policy{
				Producer: "hospital",
				Actor:    event.Actor(fmt.Sprintf("org/dept-%06d", i)),
				Class:    schema.ClassBloodTest,
				Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
				Fields:   []event.FieldName{"patient-id"},
			}); err != nil {
				log.Fatal(err)
			}
		}

		granted := 0
		for i := 0; i < attempts; i++ {
			actor := event.Actor(fmt.Sprintf("org/dept-%06d", i%nPolicies))
			sub, err := ctrl.Subscribe(actor, schema.ClassBloodTest, func(*event.Notification) {})
			if err == nil {
				granted++
				sub.Cancel()
			}
		}
		denied := 0
		for i := 0; i < attempts; i++ {
			actor := event.Actor(fmt.Sprintf("org/ungranted-%06d", i))
			if _, err := ctrl.Subscribe(actor, schema.ClassBloodTest, func(*event.Notification) {}); err != nil {
				denied++
			}
		}
		ctrl.Close()

		tbl.row(nPolicies,
			fmt.Sprintf("%d/%d", granted, attempts),
			fmt.Sprintf("%d/%d", denied, attempts))
	}
	tbl.flush()
	fmt.Fprintln(w, "shape: at every repository size each actor holding a policy is granted and")
	fmt.Fprintln(w, "each actor holding none is refused — a subscription needs a matching policy.")
}

// runE12 checks the elicitation pipeline: compilation, a lossless XML
// round-trip, and the equivalence rate between native Definition-3
// matching and compiled-XACML evaluation over randomized policies.
func runE12(w io.Writer, quick bool) {
	nPolicies := pick(quick, 2000, 20000)
	checks := pick(quick, 2000, 20000)

	// Compile + XML round-trip over the standard policy set shapes,
	// randomized.
	rnd := rand.New(rand.NewSource(12))
	domain := schema.Domain()
	consumers := workload.Consumers()
	purposes := []event.Purpose{
		event.PurposeHealthcareTreatment, event.PurposeStatisticalAnalysis,
		event.PurposeAdministration, event.PurposeSocialAssistance,
	}
	randPolicy := func(i int) *policy.Policy {
		s := domain[rnd.Intn(len(domain))]
		fields := s.FieldNames()
		k := 1 + rnd.Intn(len(fields))
		return &policy.Policy{
			ID:       policy.ID(fmt.Sprintf("p-%06d", i)),
			Producer: "prod",
			Actor:    consumers[rnd.Intn(len(consumers))].Actor,
			Class:    s.Class(),
			Purposes: []event.Purpose{purposes[rnd.Intn(len(purposes))]},
			Fields:   fields[:k],
		}
	}

	policies := make([]*policy.Policy, nPolicies)
	compiled := make([]*xacml.Policy, nPolicies)
	for i := range policies {
		policies[i] = randPolicy(i)
		x, err := xacml.Compile(policies[i])
		if err != nil {
			log.Fatal(err)
		}
		compiled[i] = x
	}

	roundTripOK := 0
	for _, x := range compiled {
		data, err := xacml.Encode(x)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := xacml.Decode(data); err == nil {
			roundTripOK++
		}
	}

	// Equivalence: native Matches vs compiled evaluation on random
	// requests.
	agree := 0
	for i := 0; i < checks; i++ {
		p := policies[rnd.Intn(len(policies))]
		req := &event.DetailRequest{
			Requester: consumers[rnd.Intn(len(consumers))].Actor,
			Class:     domain[rnd.Intn(len(domain))].Class(),
			EventID:   "evt-x",
			Purpose:   purposes[rnd.Intn(len(purposes))],
			At:        time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC),
		}
		d, _ := xacml.NewPDP(xacml.FirstApplicable)
		x, _ := xacml.Compile(p)
		d.Add(x)
		resp := d.Evaluate(xacml.CompileRequest(req))
		if p.Matches(req) == (resp.Decision == xacml.Permit) {
			agree++
		}
	}

	tbl := newTable(w, "metric", "value")
	tbl.row("policies compiled", nPolicies)
	tbl.row("XACML XML round-trip success", fmt.Sprintf("%d/%d", roundTripOK, nPolicies))
	tbl.row("native vs XACML agreement", fmt.Sprintf("%d/%d (%.2f%%)", agree, checks, 100*float64(agree)/float64(checks)))
	tbl.flush()
	fmt.Fprintln(w, "shape: every compiled policy survives the XML round trip, and agreement must")
	fmt.Fprintln(w, "be 100% — the elicited rule IS the enforced rule.")
}
