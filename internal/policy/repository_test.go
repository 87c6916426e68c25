package policy

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
)

func TestRepositoryAddGetRemove(t *testing.T) {
	r := NewRepository()
	stored, err := r.Add(validPolicy())
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if stored.ID == "" {
		t.Fatal("Add did not assign an ID")
	}
	if stored.CreatedAt.IsZero() {
		t.Error("Add did not stamp CreatedAt")
	}
	got, err := r.Get(stored.ID)
	if err != nil || got.Name != stored.Name {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if err := r.Remove(stored.ID); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := r.Get(stored.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Remove = %v", err)
	}
	if err := r.Remove(stored.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Remove = %v", err)
	}
	if r.Len() != 0 {
		t.Errorf("Len after Remove = %d", r.Len())
	}
}

func TestRepositoryAddRejectsInvalidAndDuplicateID(t *testing.T) {
	r := NewRepository()
	bad := validPolicy()
	bad.Fields = nil
	if _, err := r.Add(bad); err == nil {
		t.Error("Add accepted invalid policy")
	}
	p := validPolicy()
	p.ID = "fixed-id"
	if _, err := r.Add(p); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(p); err == nil {
		t.Error("Add accepted duplicate ID")
	}
}

func TestRepositoryAddStoresCopy(t *testing.T) {
	r := NewRepository()
	p := validPolicy()
	stored, _ := r.Add(p)
	p.Fields[0] = "mutated-after-add"
	got, _ := r.Get(stored.ID)
	if got.Fields[0] != "patient-id" {
		t.Error("repository shares state with caller's policy")
	}
	got.Fields[0] = "mutated-after-get"
	again, _ := r.Get(stored.ID)
	if again.Fields[0] != "patient-id" {
		t.Error("Get exposes internal state")
	}
}

func TestMatchDenyByDefault(t *testing.T) {
	r := NewRepository()
	if _, _, err := r.MatchFields(request()); !errors.Is(err, ErrNotFound) {
		t.Errorf("Match on empty repo = %v, want ErrNotFound", err)
	}
	r.Add(validPolicy())
	req := request()
	req.Purpose = event.PurposeAdministration
	if _, _, err := r.MatchFields(req); !errors.Is(err, ErrNotFound) {
		t.Errorf("Match with wrong purpose = %v, want ErrNotFound", err)
	}
}

func TestMatchFindsPolicy(t *testing.T) {
	r := NewRepository()
	want, _ := r.Add(validPolicy())
	id, _, err := r.MatchFields(request())
	if err != nil {
		t.Fatalf("MatchFields: %v", err)
	}
	if id != want.ID {
		t.Errorf("MatchFields = %s, want %s", id, want.ID)
	}
}

func TestMatchPrefersMostSpecificActor(t *testing.T) {
	r := NewRepository()
	org := validPolicy()
	org.Actor = "hospital"
	org.Fields = []event.FieldName{"patient-id"}
	dept := validPolicy()
	dept.Actor = "hospital/laboratory"
	dept.Fields = []event.FieldName{"patient-id", "name"}
	storedOrg, _ := r.Add(org)
	storedDept, _ := r.Add(dept)

	req := request()
	req.Requester = "hospital/laboratory"
	id, fields, err := r.MatchFields(req)
	if err != nil {
		t.Fatal(err)
	}
	if id != storedDept.ID || len(fields) != 2 {
		t.Errorf("MatchFields chose %s with %d fields, want department policy %s", id, len(fields), storedDept.ID)
	}
	// A sibling department only matches the org-level grant.
	req.Requester = "hospital/dermatology"
	id, _, err = r.MatchFields(req)
	if err != nil {
		t.Fatal(err)
	}
	if id != storedOrg.ID {
		t.Errorf("sibling matched %s, want %s", id, storedOrg.ID)
	}
}

func TestMatchTieBreaksByNewest(t *testing.T) {
	r := NewRepository()
	older := validPolicy()
	older.CreatedAt = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	older.Fields = []event.FieldName{"patient-id"}
	newer := validPolicy()
	newer.CreatedAt = time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	newer.Fields = []event.FieldName{"patient-id", "name"}
	r.Add(older)
	r.Add(newer)
	_, fields, err := r.MatchFields(request())
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 {
		t.Error("MatchFields did not prefer the newest policy on actor tie")
	}
}

func TestAllowsSubscription(t *testing.T) {
	r := NewRepository()
	now := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	if r.AllowsSubscription("family-doctor", "social.home-care-service", now) {
		t.Error("subscription allowed with empty repository (deny-by-default violated)")
	}
	p := validPolicy()
	p.NotAfter = time.Date(2010, 12, 31, 0, 0, 0, 0, time.UTC)
	r.Add(p)
	if !r.AllowsSubscription("family-doctor", "social.home-care-service", now) {
		t.Error("subscription rejected despite matching policy")
	}
	if r.AllowsSubscription("family-doctor", "hospital.blood-test", now) {
		t.Error("subscription allowed for unprotected class")
	}
	if r.AllowsSubscription("someone-else", "social.home-care-service", now) {
		t.Error("subscription allowed for unknown actor")
	}
	expired := time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)
	if r.AllowsSubscription("family-doctor", "social.home-care-service", expired) {
		t.Error("subscription allowed outside validity window")
	}
}

func TestByProducerByClassAll(t *testing.T) {
	r := NewRepository()
	p1 := validPolicy()
	p2 := validPolicy()
	p2.Producer = "hospital-s-maria"
	p2.Class = "hospital.blood-test"
	r.Add(p1)
	r.Add(p2)
	if got := r.ByProducer("municipality-trento"); len(got) != 1 {
		t.Errorf("ByProducer = %d", len(got))
	}
	if got := r.All(); len(got) != 2 || got[0].ID >= got[1].ID {
		t.Errorf("All = %v", got)
	}
}

func TestRepositoryConcurrency(t *testing.T) {
	r := NewRepository()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := validPolicy()
				p.Actor = event.Actor(fmt.Sprintf("org-%d-%d", g, i))
				if _, err := r.Add(p); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				r.MatchFields(request())
				r.All()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 400 {
		t.Errorf("Len = %d, want 400", r.Len())
	}
}
