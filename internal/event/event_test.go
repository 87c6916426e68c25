package event

import (
	"strings"
	"testing"
	"time"
)

func validNotification() *Notification {
	return &Notification{
		SourceID:   "src-1",
		Class:      "hospital.blood-test",
		PersonID:   "PRS-0001",
		Summary:    "blood test completed",
		OccurredAt: time.Date(2010, 3, 12, 9, 30, 0, 0, time.UTC),
		Producer:   "hospital-s-maria",
	}
}

func TestClassIDValidate(t *testing.T) {
	valid := []ClassID{"a", "blood-test", "hospital.blood-test", "a.b.c", "x_1.y-2"}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("ClassID(%q).Validate() = %v, want nil", c, err)
		}
	}
	invalid := []ClassID{"", ".", "a.", ".a", "a..b", "A.b", "a b", "a/b", "ä"}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("ClassID(%q).Validate() = nil, want error", c)
		}
	}
}

func TestNotificationValidate(t *testing.T) {
	if err := validNotification().Validate(); err != nil {
		t.Fatalf("valid notification rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Notification)
	}{
		{"missing class", func(n *Notification) { n.Class = "" }},
		{"bad class", func(n *Notification) { n.Class = "Not Valid" }},
		{"missing source id", func(n *Notification) { n.SourceID = "" }},
		{"missing person", func(n *Notification) { n.PersonID = "" }},
		{"missing producer", func(n *Notification) { n.Producer = "" }},
		{"missing time", func(n *Notification) { n.OccurredAt = time.Time{} }},
	}
	for _, tc := range cases {
		n := validNotification()
		tc.mutate(n)
		if err := n.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestNotificationRedact(t *testing.T) {
	n := validNotification()
	n.ID = "G-42"
	r := n.Redact()
	if r.SourceID != "" {
		t.Errorf("Redact kept source id %q", r.SourceID)
	}
	if n.SourceID == "" {
		t.Error("Redact mutated the original notification")
	}
	if r.ID != n.ID || r.PersonID != n.PersonID || r.Class != n.Class {
		t.Error("Redact altered fields other than SourceID")
	}
}

func TestDetailSetGetClone(t *testing.T) {
	d := NewDetail("hospital.blood-test", "src-1", "hospital-s-maria")
	d.Set("hemoglobin", "13.5").Set("hiv", "negative")
	if v, ok := d.Get("hemoglobin"); !ok || v != "13.5" {
		t.Fatalf("Get(hemoglobin) = %q, %v", v, ok)
	}
	if _, ok := d.Get("absent"); ok {
		t.Fatal("Get(absent) reported present")
	}
	c := d.Clone()
	c.Set("hemoglobin", "overwritten")
	if v, _ := d.Get("hemoglobin"); v != "13.5" {
		t.Error("Clone shares field map with original")
	}
	if got := len(d.FieldNames()); got != 2 {
		t.Errorf("FieldNames() len = %d, want 2", got)
	}
}

func TestDetailSetOnNilMap(t *testing.T) {
	var d Detail
	d.Set("f", "v")
	if v, ok := d.Get("f"); !ok || v != "v" {
		t.Fatalf("Set on zero-value Detail: Get = %q, %v", v, ok)
	}
}

func TestDetailFilter(t *testing.T) {
	d := NewDetail("c.x", "s", "p").
		Set("patient-id", "PRS-1").
		Set("name", "Anna").
		Set("hiv", "positive")
	f := d.Filter([]FieldName{"patient-id", "name"})
	if _, ok := f.Get("hiv"); ok {
		t.Error("Filter leaked disallowed field hiv")
	}
	if v, _ := f.Get("name"); v != "Anna" {
		t.Error("Filter dropped allowed field name")
	}
	if !f.ExposesOnly([]FieldName{"patient-id", "name"}) {
		t.Error("filtered detail not privacy safe for its own allowed set")
	}
	// Filtering must not mutate the original.
	if _, ok := d.Get("hiv"); !ok {
		t.Error("Filter mutated the original detail")
	}
	// Filtering with an empty allowed set yields no fields.
	if n := len(d.Filter(nil).Fields); n != 0 {
		t.Errorf("Filter(nil) kept %d fields, want 0", n)
	}
}

func TestDetailExposesOnly(t *testing.T) {
	d := NewDetail("c.x", "s", "p").Set("a", "1").Set("b", "")
	if !d.ExposesOnly([]FieldName{"a"}) {
		t.Error("empty-valued field b should not violate privacy safety")
	}
	if d.ExposesOnly([]FieldName{"b"}) {
		t.Error("non-empty field a outside allowed set must violate privacy safety")
	}
	if !d.ExposesOnly([]FieldName{"a", "b", "c"}) {
		t.Error("superset allowed set must be privacy safe")
	}
}

func TestDetailValidate(t *testing.T) {
	d := NewDetail("c.x", "s", "p")
	if err := d.Validate(); err != nil {
		t.Fatalf("valid detail rejected: %v", err)
	}
	for _, mutate := range []func(*Detail){
		func(d *Detail) { d.Class = "" },
		func(d *Detail) { d.SourceID = "" },
		func(d *Detail) { d.Producer = "" },
	} {
		bad := NewDetail("c.x", "s", "p")
		mutate(bad)
		if err := bad.Validate(); err == nil {
			t.Error("invalid detail accepted")
		}
	}
}

func TestActorValidate(t *testing.T) {
	for _, a := range []Actor{"org", "org/dept", "a/b/c"} {
		if err := a.Validate(); err != nil {
			t.Errorf("Actor(%q).Validate() = %v", a, err)
		}
	}
	for _, a := range []Actor{"", "/", "org/", "/org", "a//b"} {
		if err := a.Validate(); err == nil {
			t.Errorf("Actor(%q).Validate() = nil, want error", a)
		}
	}
}

func TestActorContains(t *testing.T) {
	cases := []struct {
		a, b Actor
		want bool
	}{
		{"hospital", "hospital", true},
		{"hospital", "hospital/lab", true},
		{"hospital", "hospital/lab/sub", true},
		{"hospital/lab", "hospital", false},
		{"hospital/lab", "hospital/dermatology", false},
		{"hospital", "hospitality", false}, // prefix but not on segment boundary
		{"hospital/lab", "hospital/lab", true},
	}
	for _, tc := range cases {
		if got := tc.a.Contains(tc.b); got != tc.want {
			t.Errorf("Actor(%q).Contains(%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDetailRequestValidate(t *testing.T) {
	r := DetailRequest{
		Requester: "family-doctor",
		Class:     "hospital.blood-test",
		EventID:   "G-1",
		Purpose:   PurposeHealthcareTreatment,
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	for name, mutate := range map[string]func(*DetailRequest){
		"requester": func(r *DetailRequest) { r.Requester = "" },
		"class":     func(r *DetailRequest) { r.Class = "" },
		"event id":  func(r *DetailRequest) { r.EventID = "" },
		"purpose":   func(r *DetailRequest) { r.Purpose = "" },
	} {
		bad := r
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("missing %s accepted", name)
		}
	}
}

func TestEncodeDecodeNotificationRoundTrip(t *testing.T) {
	n := validNotification()
	n.ID = "G-77"
	n.PublishedAt = time.Date(2010, 3, 12, 9, 31, 0, 0, time.UTC)
	data, err := EncodeNotification(n)
	if err != nil {
		t.Fatalf("EncodeNotification: %v", err)
	}
	got, err := DecodeNotification(data)
	if err != nil {
		t.Fatalf("DecodeNotification: %v", err)
	}
	if *got != *n {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, n)
	}
}

func TestEncodeDetailDeterministic(t *testing.T) {
	d := NewDetail("c.x", "s", "p").Set("b", "2").Set("a", "1").Set("c", "3")
	first, err := EncodeDetail(d)
	if err != nil {
		t.Fatalf("EncodeDetail: %v", err)
	}
	for i := 0; i < 5; i++ {
		again, err := EncodeDetail(d.Clone())
		if err != nil {
			t.Fatalf("EncodeDetail: %v", err)
		}
		if string(again) != string(first) {
			t.Fatalf("non-deterministic encoding:\n%s\n%s", first, again)
		}
	}
	if !strings.Contains(string(first), `name="a"`) {
		t.Errorf("encoded detail missing field element: %s", first)
	}
}

func TestEncodeDecodeDetailRoundTrip(t *testing.T) {
	d := NewDetail("hospital.blood-test", "src-9", "hospital-s-maria").
		Set("hemoglobin", "13.5").
		Set("notes", "routine <checkup> & follow-up")
	data, err := EncodeDetail(d)
	if err != nil {
		t.Fatalf("EncodeDetail: %v", err)
	}
	got, err := DecodeDetail(data)
	if err != nil {
		t.Fatalf("DecodeDetail: %v", err)
	}
	if got.SourceID != d.SourceID || got.Class != d.Class || got.Producer != d.Producer {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Fields) != len(d.Fields) {
		t.Fatalf("field count = %d, want %d", len(got.Fields), len(d.Fields))
	}
	for k, v := range d.Fields {
		if got.Fields[k] != v {
			t.Errorf("field %q = %q, want %q", k, got.Fields[k], v)
		}
	}
}

func TestDecodeDetailRejectsGarbage(t *testing.T) {
	if _, err := DecodeDetail([]byte("not xml at all")); err == nil {
		t.Error("DecodeDetail accepted garbage")
	}
	if _, err := DecodeNotification([]byte("<unclosed")); err == nil {
		t.Error("DecodeNotification accepted garbage")
	}
}
