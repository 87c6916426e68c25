package css_test

import (
	"testing"

	"repro/css"
	"repro/internal/audit"
	"repro/internal/schema"
)

func TestCitizenTimelineAndHistory(t *testing.T) {
	s := newScenario(t)
	s.doctorPolicy(t)
	id1 := s.emit(t, "src-1", "PRS-ANNA")
	s.emit(t, "src-2", "PRS-OTHER")
	id3 := s.emit(t, "src-3", "PRS-ANNA")

	anna, err := s.platform.Citizen("PRS-ANNA")
	if err != nil {
		t.Fatal(err)
	}

	// Timeline: only Anna's events, source ids redacted.
	timeline, err := anna.Timeline(css.Inquiry{})
	if err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	if len(timeline) != 2 {
		t.Fatalf("timeline = %d events", len(timeline))
	}
	seen := map[css.EventID]bool{}
	for _, n := range timeline {
		if n.PersonID != "PRS-ANNA" {
			t.Errorf("foreign event in timeline: %+v", n)
		}
		if n.SourceID != "" {
			t.Error("source id leaked in timeline")
		}
		seen[n.ID] = true
	}
	if !seen[id1] || !seen[id3] {
		t.Error("timeline missing own events")
	}

	// The doctor accesses one of Anna's events; Anna sees it.
	if _, err := s.doctor.RequestDetails(id1, schema.ClassBloodTest, css.PurposeHealthcareTreatment); err != nil {
		t.Fatal(err)
	}
	history, err := anna.AccessHistory()
	if err != nil {
		t.Fatalf("AccessHistory: %v", err)
	}
	var detailAccesses int
	for _, r := range history {
		if r.Kind == audit.KindDetailRequest {
			detailAccesses++
			if r.Actor != "family-doctor" || r.Purpose != css.PurposeHealthcareTreatment {
				t.Errorf("history record = %+v", r)
			}
		}
	}
	if detailAccesses != 1 {
		t.Errorf("detail accesses in history = %d", detailAccesses)
	}
}

func TestCitizenConsentManagement(t *testing.T) {
	s := newScenario(t)
	s.doctorPolicy(t)
	id := s.emit(t, "src-1", "PRS-ANNA")

	anna, err := s.platform.Citizen("PRS-ANNA")
	if err != nil {
		t.Fatal(err)
	}
	if err := anna.OptOut(css.ConsentScope{Consumer: "family-doctor"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment); err == nil {
		t.Error("opt-out via citizen handle not enforced")
	}
	if _, err := s.platform.Controller().RecordConsent(css.ConsentDirective{PersonID: "PRS-ANNA", Allow: true,
		Scope: css.ConsentScope{Consumer: "family-doctor", Class: schema.ClassBloodTest}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.doctor.RequestDetails(id, schema.ClassBloodTest, css.PurposeHealthcareTreatment); err != nil {
		t.Errorf("narrow opt-in not honored: %v", err)
	}
	if got := anna.Directives(); len(got) != 2 {
		t.Errorf("Directives = %d", len(got))
	}
	// Her own timeline is unaffected by her opt-outs.
	timeline, err := anna.Timeline(css.Inquiry{})
	if err != nil || len(timeline) != 1 {
		t.Errorf("timeline after opt-out = %d, %v", len(timeline), err)
	}
}

func TestCitizenValidation(t *testing.T) {
	s := newScenario(t)
	if _, err := s.platform.Citizen(""); err == nil {
		t.Error("empty person id accepted")
	}
	// A citizen with no events has an empty, not failing, view.
	ghost, err := s.platform.Citizen("PRS-NOBODY")
	if err != nil {
		t.Fatal(err)
	}
	if tl, err := ghost.Timeline(css.Inquiry{}); err != nil || len(tl) != 0 {
		t.Errorf("ghost timeline = %d, %v", len(tl), err)
	}
	if h, err := ghost.AccessHistory(); err != nil || len(h) != 0 {
		t.Errorf("ghost history = %d, %v", len(h), err)
	}
}
