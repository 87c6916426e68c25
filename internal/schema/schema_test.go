package schema

import (
	"strings"
	"testing"

	"repro/internal/event"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := New("test.exam", 1, "a test exam",
		Field{Name: "patient-id", Type: String, Required: true, Sensitivity: Identifying},
		Field{Name: "score", Type: Int, Required: true, Sensitivity: Sensitive},
		Field{Name: "ratio", Type: Float},
		Field{Name: "flag", Type: Bool},
		Field{Name: "when", Type: Date},
		Field{Name: "stamp", Type: DateTime},
		Field{Name: "outcome", Type: Code, Codes: []string{"ok", "ko"}},
		Field{Name: "notes", Type: String, Sensitivity: Sensitive},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewRejectsBadSchemas(t *testing.T) {
	cases := []struct {
		name   string
		class  event.ClassID
		ver    int
		fields []Field
	}{
		{"bad class", "Bad Class", 1, []Field{{Name: "a"}}},
		{"zero version", "c.x", 0, []Field{{Name: "a"}}},
		{"no fields", "c.x", 1, nil},
		{"empty field name", "c.x", 1, []Field{{Name: ""}}},
		{"duplicate field", "c.x", 1, []Field{{Name: "a"}, {Name: "a"}}},
		{"code without codes", "c.x", 1, []Field{{Name: "a", Type: Code}}},
		{"codes on non-code", "c.x", 1, []Field{{Name: "a", Type: Int, Codes: []string{"x"}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.class, tc.ver, "", tc.fields...); err == nil {
			t.Errorf("%s: New accepted invalid schema", tc.name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on invalid schema")
		}
	}()
	MustNew("c.x", 1, "")
}

func TestAccessors(t *testing.T) {
	s := testSchema(t)
	if s.Class() != "test.exam" || s.Version() != 1 || s.Doc() != "a test exam" {
		t.Errorf("accessors: %s v%d %q", s.Class(), s.Version(), s.Doc())
	}
	if len(s.Fields()) != 8 || len(s.FieldNames()) != 8 {
		t.Errorf("Fields()=%d FieldNames()=%d, want 8", len(s.Fields()), len(s.FieldNames()))
	}
	if f := s.Fields()[s.byName["score"]]; f.Name != "score" || f.Type != Int || !f.Required {
		t.Errorf("Fields()[score] = %+v", f)
	}
	if s.Has("nope") {
		t.Error("Has(nope) reported present")
	}
	if !s.Has("ratio") || s.Has("nope") {
		t.Error("Has misreports")
	}
	// Fields() must return a copy.
	s.Fields()[0].Name = "mutated"
	if s.FieldNames()[0] != "patient-id" {
		t.Error("Fields() exposes internal slice")
	}
}

func TestFieldsWith(t *testing.T) {
	s := testSchema(t)
	sens := s.FieldsWith(Sensitive)
	if len(sens) != 2 || sens[0] != "score" || sens[1] != "notes" {
		t.Errorf("FieldsWith(Sensitive) = %v", sens)
	}
	if ids := s.FieldsWith(Identifying); len(ids) != 1 || ids[0] != "patient-id" {
		t.Errorf("FieldsWith(Identifying) = %v", ids)
	}
}

func TestCheckFields(t *testing.T) {
	s := testSchema(t)
	if err := s.CheckFields([]event.FieldName{"score", "notes"}); err != nil {
		t.Errorf("CheckFields(valid) = %v", err)
	}
	if err := s.CheckFields([]event.FieldName{"score", "bogus"}); err == nil {
		t.Error("CheckFields accepted unknown field")
	}
}

func validDetail() *event.Detail {
	return event.NewDetail("test.exam", "s-1", "prod").
		Set("patient-id", "PRS-1").
		Set("score", "42").
		Set("ratio", "0.5").
		Set("flag", "true").
		Set("when", "2010-06-01").
		Set("stamp", "2010-06-01T10:00:00Z").
		Set("outcome", "ok").
		Set("notes", "fine")
}

func TestValidateAcceptsFullDetail(t *testing.T) {
	if err := testSchema(t).Validate(validDetail()); err != nil {
		t.Errorf("Validate(full) = %v", err)
	}
}

func TestValidateTypeErrors(t *testing.T) {
	s := testSchema(t)
	bad := map[event.FieldName]string{
		"score":   "not-an-int",
		"ratio":   "x",
		"flag":    "yes",
		"when":    "01/06/2010",
		"stamp":   "2010-06-01",
		"outcome": "maybe",
	}
	for f, v := range bad {
		d := validDetail().Set(f, v)
		err := s.Validate(d)
		if err == nil {
			t.Errorf("Validate accepted %s=%q", f, v)
			continue
		}
		if !strings.Contains(err.Error(), string(f)) {
			t.Errorf("error for %s does not name the field: %v", f, err)
		}
	}
}

func TestValidateRequired(t *testing.T) {
	s := testSchema(t)
	d := validDetail()
	delete(d.Fields, "score")
	if err := s.Validate(d); err == nil {
		t.Error("Validate accepted detail missing required field")
	}
	d2 := validDetail().Set("score", "")
	if err := s.Validate(d2); err == nil {
		t.Error("Validate accepted empty required field")
	}
}

func TestValidateRejectsUndeclaredAndWrongClass(t *testing.T) {
	s := testSchema(t)
	d := validDetail().Set("extra", "v")
	if err := s.Validate(d); err == nil {
		t.Error("Validate accepted undeclared field")
	}
	wrong := validDetail()
	wrong.Class = "other.class"
	if err := s.Validate(wrong); err == nil {
		t.Error("Validate accepted wrong class")
	}
}

func TestFieldTypeAndSensitivityNames(t *testing.T) {
	for _, ft := range []FieldType{String, Int, Float, Bool, Date, DateTime, Code} {
		got, err := ParseFieldType(ft.String())
		if err != nil || got != ft {
			t.Errorf("ParseFieldType(%v.String()) = %v, %v", ft, got, err)
		}
	}
	if _, err := ParseFieldType("nonsense"); err == nil {
		t.Error("ParseFieldType accepted nonsense")
	}
	if FieldType(99).String() == "" {
		t.Error("unknown FieldType has empty String()")
	}
	for _, sv := range []Sensitivity{Ordinary, Identifying, Sensitive} {
		got, err := ParseSensitivity(sv.String())
		if err != nil || got != sv {
			t.Errorf("ParseSensitivity(%v.String()) = %v, %v", sv, got, err)
		}
	}
	if _, err := ParseSensitivity("nonsense"); err == nil {
		t.Error("ParseSensitivity accepted nonsense")
	}
	if Sensitivity(99).String() == "" {
		t.Error("unknown Sensitivity has empty String()")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	for _, s := range Domain() {
		data, err := Encode(s)
		if err != nil {
			t.Fatalf("Encode(%s): %v", s.Class(), err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode(%s): %v", s.Class(), err)
		}
		if got.Class() != s.Class() || got.Version() != s.Version() || got.Doc() != s.Doc() {
			t.Errorf("%s: header mismatch after round trip", s.Class())
		}
		want, gotFields := s.Fields(), got.Fields()
		if len(want) != len(gotFields) {
			t.Fatalf("%s: field count %d != %d", s.Class(), len(gotFields), len(want))
		}
		for i := range want {
			w, g := want[i], gotFields[i]
			if w.Name != g.Name || w.Type != g.Type || w.Required != g.Required ||
				w.Sensitivity != g.Sensitivity || w.Doc != g.Doc || len(w.Codes) != len(g.Codes) {
				t.Errorf("%s: field %s mismatch: %+v != %+v", s.Class(), w.Name, g, w)
			}
		}
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("Decode accepted garbage")
	}
	// Structurally valid XML but failing New's integrity rules.
	bad := `<eventSchema class="c.x" version="1"><field name="a" type="int" sensitivity="ordinary"></field><field name="a" type="int" sensitivity="ordinary"></field></eventSchema>`
	if _, err := Decode([]byte(bad)); err == nil {
		t.Error("Decode accepted duplicate fields")
	}
	badType := `<eventSchema class="c.x" version="1"><field name="a" type="weird" sensitivity="ordinary"></field></eventSchema>`
	if _, err := Decode([]byte(badType)); err == nil {
		t.Error("Decode accepted unknown type")
	}
	badSens := `<eventSchema class="c.x" version="1"><field name="a" type="int" sensitivity="weird"></field></eventSchema>`
	if _, err := Decode([]byte(badSens)); err == nil {
		t.Error("Decode accepted unknown sensitivity")
	}
}

func TestDomainSchemasAreWellFormed(t *testing.T) {
	seen := map[event.ClassID]bool{}
	for _, s := range Domain() {
		if seen[s.Class()] {
			t.Errorf("duplicate domain class %s", s.Class())
		}
		seen[s.Class()] = true
		if !s.Has("patient-id") {
			t.Errorf("%s: missing patient-id field", s.Class())
		}
		if len(s.FieldsWith(Sensitive)) == 0 && s.Class() != ClassFoodDelivery {
			// every clinical/assistive class should carry sensitive payload
			t.Logf("note: %s has no sensitive fields", s.Class())
		}
	}
	if len(seen) != 9 {
		t.Errorf("Domain() returned %d classes, want 9", len(seen))
	}
}
