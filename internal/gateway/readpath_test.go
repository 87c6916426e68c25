package gateway

import (
	"testing"

	"repro/internal/event"
)

func TestRePersistServesAmendedDetail(t *testing.T) {
	g := newGateway(t)
	if err := g.Persist(bloodDetail("src-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.GetResponse("src-1", []event.FieldName{"hemoglobin"}); err != nil {
		t.Fatal(err)
	}
	amended := bloodDetail("src-1").Set("hemoglobin", "9.9")
	if err := g.Persist(amended); err != nil {
		t.Fatal(err)
	}
	d, err := g.GetResponse("src-1", []event.FieldName{"hemoglobin"})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("hemoglobin"); v != "9.9" {
		t.Errorf("GetResponse after re-Persist = %q, want the amended value", v)
	}
}

func TestNarrowResponseDoesNotShrinkWideOne(t *testing.T) {
	g := newGateway(t)
	if err := g.Persist(bloodDetail("src-1")); err != nil {
		t.Fatal(err)
	}
	// A narrow filtered response must not shrink what a later, wider
	// request can see.
	if _, err := g.GetResponse("src-1", []event.FieldName{"patient-id"}); err != nil {
		t.Fatal(err)
	}
	d, err := g.GetResponse("src-1", []event.FieldName{"patient-id", "hemoglobin", "exam-date"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []event.FieldName{"patient-id", "hemoglobin", "exam-date"} {
		if _, ok := d.Get(f); !ok {
			t.Errorf("field %s missing from the wide response after a narrow one", f)
		}
	}
}
