package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/schema"
)

func memberRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New()
	if err := r.RegisterProducer("hospital-s-maria", "Hospital S. Maria"); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterConsumer("family-doctor", "Family doctors network"); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegisterProducer(t *testing.T) {
	r := memberRegistry(t)
	if !r.HasProducer("hospital-s-maria") {
		t.Error("registered producer not found")
	}
	if r.HasProducer("unknown") {
		t.Error("unknown producer found")
	}
	if err := r.RegisterProducer("hospital-s-maria", "again"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate producer = %v", err)
	}
	if err := r.RegisterProducer("", "x"); err == nil {
		t.Error("empty producer id accepted")
	}
	if got := r.Producers(); len(got) != 1 || got[0].Name != "Hospital S. Maria" {
		t.Errorf("Producers = %+v", got)
	}
}

func TestRegisterConsumer(t *testing.T) {
	r := memberRegistry(t)
	if !r.HasConsumer("family-doctor") {
		t.Error("registered consumer not found")
	}
	// Registering an org admits its departments.
	if err := r.RegisterConsumer("national-governance", "Gov"); err != nil {
		t.Fatal(err)
	}
	if !r.HasConsumer("national-governance/statistics") {
		t.Error("department of registered org not admitted")
	}
	if r.HasConsumer("unknown-org/dept") {
		t.Error("unknown consumer admitted")
	}
	if err := r.RegisterConsumer("bad//actor", "x"); err == nil {
		t.Error("invalid actor accepted")
	}
	if err := r.RegisterConsumer("family-doctor", "again"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate consumer = %v", err)
	}
	if got := r.Consumers(); len(got) != 2 {
		t.Errorf("Consumers = %+v", got)
	}
}

func TestDeclareClass(t *testing.T) {
	r := memberRegistry(t)
	if err := r.DeclareClass("hospital-s-maria", schema.BloodTest()); err != nil {
		t.Fatalf("DeclareClass: %v", err)
	}
	d, err := r.Class(schema.ClassBloodTest)
	if err != nil {
		t.Fatalf("Class: %v", err)
	}
	if d.Producer != "hospital-s-maria" || d.Schema.Version() != 1 || d.DeclaredAt.IsZero() {
		t.Errorf("declaration = %+v", d)
	}
	s, err := r.Schema(schema.ClassBloodTest)
	if err != nil || s.Class() != schema.ClassBloodTest {
		t.Errorf("Schema = %v, %v", s, err)
	}
	if _, err := r.Class("no.such-class"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown class = %v", err)
	}
}

func TestDeclareClassGuards(t *testing.T) {
	r := memberRegistry(t)
	if err := r.DeclareClass("not-a-member", schema.BloodTest()); !errors.Is(err, ErrNotMember) {
		t.Errorf("non-member declaration = %v", err)
	}
	if err := r.DeclareClass("hospital-s-maria", nil); err == nil {
		t.Error("nil schema accepted")
	}
	if err := r.DeclareClass("hospital-s-maria", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	// Another producer cannot take over the class.
	r.RegisterProducer("other-hospital", "Other")
	if err := r.DeclareClass("other-hospital", schema.BloodTest()); !errors.Is(err, ErrNotOwner) {
		t.Errorf("takeover = %v", err)
	}
	// Re-declaring the same version is stale.
	if err := r.DeclareClass("hospital-s-maria", schema.BloodTest()); !errors.Is(err, ErrStaleClass) {
		t.Errorf("same-version redeclare = %v", err)
	}
	// A newer version upgrades.
	v2 := schema.MustNew(schema.ClassBloodTest, 2, "blood test v2",
		schema.Field{Name: "patient-id", Type: schema.String, Required: true, Sensitivity: schema.Identifying},
		schema.Field{Name: "panel", Type: schema.String, Sensitivity: schema.Sensitive},
	)
	if err := r.DeclareClass("hospital-s-maria", v2); err != nil {
		t.Errorf("upgrade = %v", err)
	}
	if s, _ := r.Schema(schema.ClassBloodTest); s.Version() != 2 {
		t.Errorf("version after upgrade = %d", s.Version())
	}
}

func TestClassesListing(t *testing.T) {
	r := memberRegistry(t)
	r.RegisterProducer("municipality", "Municipality")
	r.DeclareClass("hospital-s-maria", schema.BloodTest())
	r.DeclareClass("hospital-s-maria", schema.Discharge())
	r.DeclareClass("municipality", schema.HomeCare())
	all := r.Classes()
	if len(all) != 3 {
		t.Fatalf("Classes = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Class <= all[i-1].Class {
			t.Error("Classes not sorted")
		}
	}
}

func TestConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pid := event.ProducerID(fmt.Sprintf("prod-%d", g))
			if err := r.RegisterProducer(pid, "p"); err != nil {
				t.Errorf("RegisterProducer: %v", err)
				return
			}
			for i := 0; i < 20; i++ {
				s := schema.MustNew(event.ClassID(fmt.Sprintf("c%d.x%d", g, i)), 1, "d",
					schema.Field{Name: "f", Type: schema.String})
				if err := r.DeclareClass(pid, s); err != nil {
					t.Errorf("DeclareClass: %v", err)
					return
				}
				r.Classes()
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Classes()); got != 160 {
		t.Errorf("Classes = %d", got)
	}
}
