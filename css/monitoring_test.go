package css_test

import (
	"errors"
	"testing"
	"time"

	"repro/css"
	"repro/internal/schema"
)

func TestMonitorProcessesRequiresAuthorization(t *testing.T) {
	s := newScenario(t)
	pathway := &css.Pathway{
		Name:    "exam follow-up",
		Trigger: schema.ClassBloodTest,
		Stages:  []css.PathwayStage{{Name: "repeat test", Class: schema.ClassBloodTest, Within: 24 * time.Hour}},
	}
	// No policy: the monitoring body cannot subscribe (deny-by-default
	// applies to monitoring like any other access).
	if _, err := s.doctor.MonitorProcesses(pathway); !errors.Is(err, css.ErrSubscriptionDenied) {
		t.Fatalf("unauthorized monitoring = %v", err)
	}
	s.doctorPolicy(t)
	m, err := s.doctor.MonitorProcesses(pathway)
	if err != nil {
		t.Fatalf("authorized monitoring = %v", err)
	}
	defer m.Stop()

	s.emit(t, "src-1", "PRS-1")
	if !s.platform.Flush(5 * time.Second) {
		t.Fatal("Flush timed out")
	}
	report := m.Snapshot(time.Date(2010, 5, 30, 10, 0, 0, 0, time.UTC))
	if len(report.Active) != 1 || report.Active[0].PersonID != "PRS-1" {
		t.Fatalf("active = %+v", report.Active)
	}
	// The repeat test completes the instance.
	s.emit(t, "src-2", "PRS-1")
	if !s.platform.Flush(5 * time.Second) {
		t.Fatal("Flush timed out")
	}
	report = m.Snapshot(time.Date(2010, 5, 30, 11, 0, 0, 0, time.UTC))
	if len(report.Completed) != 1 {
		t.Fatalf("completed = %+v", report.Completed)
	}

	// After Stop, further events no longer feed the monitor.
	m.Stop()
	s.emit(t, "src-3", "PRS-2")
	s.platform.Flush(5 * time.Second)
	report = m.Snapshot(time.Date(2010, 5, 30, 12, 0, 0, 0, time.UTC))
	if len(report.Active) != 0 {
		t.Errorf("monitor observed after Stop: %+v", report.Active)
	}
}
