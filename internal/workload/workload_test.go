package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/schema"
)

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(Config{Seed: 42, People: 100})
	b := NewGenerator(Config{Seed: 42, People: 100})
	for i := 0; i < 50; i++ {
		na, da := a.Next()
		nb, db := b.Next()
		if na.SourceID != nb.SourceID || na.PersonID != nb.PersonID || na.Class != nb.Class {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, na, nb)
		}
		if len(da.Fields) != len(db.Fields) {
			t.Fatalf("details diverge at %d", i)
		}
	}
	c := NewGenerator(Config{Seed: 43, People: 100})
	nc, _ := c.Next()
	na2, _ := NewGenerator(Config{Seed: 42, People: 100}).Next()
	if nc.PersonID == na2.PersonID && nc.Class == na2.Class && nc.Summary == na2.Summary {
		t.Log("note: different seeds produced identical first event (unlikely but possible)")
	}
}

func TestGeneratedEventsAreSchemaValid(t *testing.T) {
	g := NewGenerator(Config{Seed: 7, People: 50})
	schemas := map[event.ClassID]*schema.Schema{}
	for _, s := range schema.Domain() {
		schemas[s.Class()] = s
	}
	for i := 0; i < 200; i++ {
		n, d := g.Next()
		if err := n.Validate(); err != nil {
			t.Fatalf("event %d: invalid notification: %v", i, err)
		}
		s, ok := schemas[d.Class]
		if !ok {
			t.Fatalf("event %d: unknown class %s", i, d.Class)
		}
		if err := s.Validate(d); err != nil {
			t.Fatalf("event %d: schema-invalid detail: %v", i, err)
		}
		if n.SourceID != d.SourceID || n.Class != d.Class || n.Producer != d.Producer {
			t.Fatalf("event %d: notification/detail mismatch", i)
		}
		if v, _ := d.Get("patient-id"); v != n.PersonID {
			t.Fatalf("event %d: person mismatch %q != %q", i, v, n.PersonID)
		}
	}
}

func TestGeneratorTimeAdvances(t *testing.T) {
	g := NewGenerator(Config{Seed: 1, People: 10})
	n1, _ := g.Next()
	n2, _ := g.Next()
	if !n2.OccurredAt.After(n1.OccurredAt) {
		t.Error("occurrence time does not advance")
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewGenerator(Config{Seed: 9, People: 1000, ZipfS: 1.5})
	counts := map[string]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		ev, _ := g.Next()
		counts[ev.PersonID]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// With strong skew the hottest person must dominate far beyond the
	// uniform expectation (n/1000 = 5).
	if max < 50 {
		t.Errorf("hottest person has %d events; Zipf skew not effective", max)
	}
	// And the population coverage must still be partial.
	if len(counts) == 1000 {
		t.Error("all people active; skew looks uniform")
	}
}

func TestRostersAreConsistent(t *testing.T) {
	seenClass := map[event.ClassID]bool{}
	for _, p := range Producers() {
		if p.ID == "" || len(p.Classes) == 0 {
			t.Errorf("bad producer spec %+v", p)
		}
		for _, s := range p.Classes {
			if seenClass[s.Class()] {
				t.Errorf("class %s declared by two producers", s.Class())
			}
			seenClass[s.Class()] = true
		}
	}
	// Every domain class must have an owner.
	for _, s := range schema.Domain() {
		if !seenClass[s.Class()] {
			t.Errorf("domain class %s has no producer", s.Class())
		}
	}
	if len(Consumers()) < 3 {
		t.Error("too few consumers for the scenario")
	}
}

func TestProvisionAndStandardPolicies(t *testing.T) {
	c, err := core.New(core.Config{DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := Provision(c)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if len(p.Gateways) != len(Producers()) {
		t.Errorf("gateways = %d", len(p.Gateways))
	}
	policies, err := p.StandardPolicies()
	if err != nil {
		t.Fatalf("StandardPolicies: %v", err)
	}
	if len(policies) < 10 {
		t.Errorf("standard policy set = %d policies", len(policies))
	}

	// Drive a small stream end to end through the provisioned platform.
	g := NewGenerator(Config{Seed: 3, People: 20})
	var autonomyGID event.GlobalID
	for i := 0; i < 100; i++ {
		n, d := g.Next()
		gid, err := p.Produce(n, d)
		if err != nil {
			t.Fatalf("Produce %d (%s): %v", i, n.Class, err)
		}
		if n.Class == schema.ClassAutonomyTest && autonomyGID == "" {
			autonomyGID = gid
		}
	}
	if total, _ := c.InquireIndex("family-doctor", index.Inquiry{}); len(total) != 100 {
		t.Errorf("family doctor sees %d notifications, want 100", len(total))
	}

	if autonomyGID != "" {
		// The statistics department gets exactly its three fields.
		d, err := c.RequestDetails(&event.DetailRequest{
			Requester: "national-governance/statistics",
			Class:     schema.ClassAutonomyTest,
			EventID:   autonomyGID,
			Purpose:   event.PurposeStatisticalAnalysis,
		})
		if err != nil {
			t.Fatalf("statistics detail request: %v", err)
		}
		if !d.ExposesOnly([]event.FieldName{"age", "sex", "autonomy-score"}) {
			t.Errorf("statistics response over-exposes: %v", d.FieldNames())
		}
		if _, ok := d.Get("patient-id"); ok {
			t.Error("statistics response identifies the patient")
		}
	} else {
		t.Log("no autonomy test in the sampled stream")
	}
}
