package gateway

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/store"
)

func catalog(t *testing.T) *registry.Registry {
	t.Helper()
	r := registry.New()
	if err := r.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	return r
}

func newGateway(t *testing.T) *Gateway {
	t.Helper()
	g, err := New("hospital", store.OpenMemory(), catalog(t))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func bloodDetail(src event.SourceID) *event.Detail {
	return event.NewDetail(schema.ClassBloodTest, src, "hospital").
		Set("patient-id", "PRS-1").
		Set("exam-date", "2010-03-01").
		Set("hemoglobin", "13.5").
		Set("aids-test", "negative").
		Set("lab-notes", "routine checkup")
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", store.OpenMemory(), nil); err == nil {
		t.Error("empty producer accepted")
	}
	if _, err := New("p", nil, nil); err == nil {
		t.Error("nil store accepted")
	}
}

func TestPersistAndGetResponse(t *testing.T) {
	g := newGateway(t)
	if err := g.Persist(bloodDetail("src-1")); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	got, err := g.GetResponse("src-1", []event.FieldName{"patient-id", "hemoglobin"})
	if err != nil {
		t.Fatalf("GetResponse: %v", err)
	}
	if v, _ := got.Get("hemoglobin"); v != "13.5" {
		t.Errorf("hemoglobin = %q", v)
	}
	if _, leaked := got.Get("aids-test"); leaked {
		t.Error("unauthorized field released")
	}
	if !got.ExposesOnly([]event.FieldName{"patient-id", "hemoglobin"}) {
		t.Error("response not privacy safe")
	}
}

func TestGetResponseFailClosed(t *testing.T) {
	g := newGateway(t)
	g.Persist(bloodDetail("src-1"))
	if _, err := g.GetResponse("src-1", nil); !errors.Is(err, ErrNoFields) {
		t.Errorf("empty field set = %v, want ErrNoFields", err)
	}
	if _, err := g.GetResponse("src-404", []event.FieldName{"patient-id"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown source = %v, want ErrNotFound", err)
	}
}

func TestPersistValidation(t *testing.T) {
	g := newGateway(t)
	// Wrong producer.
	d := bloodDetail("src-1")
	d.Producer = "someone-else"
	if err := g.Persist(d); !errors.Is(err, ErrWrongProducer) {
		t.Errorf("wrong producer = %v", err)
	}
	// Unknown class.
	u := event.NewDetail("unknown.class", "s", "hospital").Set("f", "v")
	if err := g.Persist(u); err == nil {
		t.Error("unknown class accepted")
	}
	// Schema violation: missing required field.
	bad := event.NewDetail(schema.ClassBloodTest, "s", "hospital").Set("hemoglobin", "13")
	if err := g.Persist(bad); err == nil {
		t.Error("schema-invalid detail accepted")
	}
	// Structural violation.
	empty := &event.Detail{}
	if err := g.Persist(empty); err == nil {
		t.Error("structurally invalid detail accepted")
	}
}

func TestPersistWithoutSchemaSource(t *testing.T) {
	g, err := New("hospital", store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := event.NewDetail("any.class", "s", "hospital").Set("f", "v")
	if err := g.Persist(d); err != nil {
		t.Errorf("Persist without schemas = %v", err)
	}
}

func TestTemporalDecoupling(t *testing.T) {
	// The gateway answers from its own store: details persist across
	// restarts, modeling retrieval months later with the source system
	// offline (E10).
	path := filepath.Join(t.TempDir(), "gw.wal")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := New("hospital", st, catalog(t))
	g.Persist(bloodDetail("src-old"))
	st.Close() // the producer's system goes down

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	g2, _ := New("hospital", st2, catalog(t))
	got, err := g2.GetResponse("src-old", []event.FieldName{"patient-id"})
	if err != nil {
		t.Fatalf("retrieval after restart: %v", err)
	}
	if v, _ := got.Get("patient-id"); v != "PRS-1" {
		t.Errorf("patient-id = %q", v)
	}
}

func TestLenAndStats(t *testing.T) {
	g := newGateway(t)
	g.Persist(bloodDetail("src-1"))
	g.Persist(bloodDetail("src-2"))
	g.Persist(bloodDetail("src-1")) // overwrite, not growth
	if n, _ := g.Len(); n != 2 {
		t.Errorf("Len = %d", n)
	}
	g.GetResponse("src-1", []event.FieldName{"patient-id"})
	st := g.Stats()
	if st.Stored != 3 || st.Served != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if st.BytesReleased == 0 || st.BytesWithheld == 0 {
		t.Errorf("byte accounting missing: %+v", st)
	}
	if st.BytesReleased != uint64(len("PRS-1")) {
		t.Errorf("BytesReleased = %d, want %d", st.BytesReleased, len("PRS-1"))
	}
}

// Property: whatever the authorized set, the response never exposes a
// field outside it (Definition 4 at the gateway boundary), and authorized
// fields keep their exact values.
func TestQuickGetResponsePrivacySafe(t *testing.T) {
	g, err := New("hospital", store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	universe := []event.FieldName{"f1", "f2", "f3", "f4", "f5", "f6"}
	f := func(seed int64, mask uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := event.NewDetail("c.x", event.SourceID(string(rune('a'+r.Intn(26)))), "hospital")
		for _, name := range universe {
			if r.Intn(2) == 0 {
				d.Set(name, string(rune('a'+r.Intn(26))))
			}
		}
		if len(d.Fields) == 0 {
			d.Set("f1", "x")
		}
		if err := g.Persist(d); err != nil {
			return false
		}
		var allowed []event.FieldName
		for i, name := range universe {
			if mask&(1<<i) != 0 {
				allowed = append(allowed, name)
			}
		}
		if len(allowed) == 0 {
			allowed = []event.FieldName{"f1"}
		}
		resp, err := g.GetResponse(d.SourceID, allowed)
		if err != nil {
			return false
		}
		if !resp.ExposesOnly(allowed) {
			return false
		}
		for name, v := range resp.Fields {
			if d.Fields[name] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
