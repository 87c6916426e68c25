package process

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/schema"
)

// dischargePathway: hospital discharge → home care within 7 days →
// nursing within 14 days of the home-care start.
func dischargePathway() *Pathway {
	return &Pathway{
		Name:    "post-discharge care",
		Trigger: schema.ClassDischarge,
		Stages: []Stage{
			{Name: "home care activated", Class: schema.ClassHomeCare, Within: 7 * 24 * time.Hour},
			{Name: "first nursing visit", Class: schema.ClassNursingService, Within: 14 * 24 * time.Hour},
		},
	}
}

var pt0 = time.Date(2010, 3, 1, 10, 0, 0, 0, time.UTC)

func notif(id string, person string, class event.ClassID, at time.Time) *event.Notification {
	return &event.Notification{
		ID: event.GlobalID(id), Class: class, PersonID: person,
		OccurredAt: at, Producer: "p", SourceID: "s",
	}
}

func TestPathwayValidate(t *testing.T) {
	if err := dischargePathway().Validate(); err != nil {
		t.Fatalf("valid pathway rejected: %v", err)
	}
	cases := []func(*Pathway){
		func(p *Pathway) { p.Name = "" },
		func(p *Pathway) { p.Trigger = "Bad Class" },
		func(p *Pathway) { p.Stages = nil },
		func(p *Pathway) { p.Stages[0].Name = "" },
		func(p *Pathway) { p.Stages[0].Class = "bad class" },
		func(p *Pathway) { p.Stages[0].Within = -time.Hour },
	}
	for i, mutate := range cases {
		p := dischargePathway()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewMonitor(); err == nil {
		t.Error("monitor without pathways accepted")
	}
	if _, err := NewMonitor(dischargePathway(), dischargePathway()); err == nil {
		t.Error("duplicate pathway accepted")
	}
}

func TestHappyPathCompletion(t *testing.T) {
	m, err := NewMonitor(dischargePathway())
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(notif("e1", "P1", schema.ClassDischarge, pt0))
	m.Observe(notif("e2", "P1", schema.ClassHomeCare, pt0.Add(3*24*time.Hour)))
	m.Observe(notif("e3", "P1", schema.ClassNursingService, pt0.Add(10*24*time.Hour)))

	r := m.Snapshot(pt0.Add(11 * 24 * time.Hour))
	if len(r.Completed) != 1 || len(r.Active) != 0 || len(r.Stalled) != 0 {
		t.Fatalf("report = %d/%d/%d", len(r.Active), len(r.Stalled), len(r.Completed))
	}
	c := r.Completed[0]
	if c.PersonID != "P1" || c.NextStage != 2 || len(c.Events) != 3 {
		t.Errorf("completed instance = %+v", c)
	}
	if !c.CompletedAt.Equal(pt0.Add(10 * 24 * time.Hour)) {
		t.Errorf("CompletedAt = %v", c.CompletedAt)
	}
	if c.StateAt(pt0.Add(100*24*time.Hour)) != Completed {
		t.Error("completed instance can stall")
	}
}

func TestStallDetection(t *testing.T) {
	m, _ := NewMonitor(dischargePathway())
	m.Observe(notif("e1", "P1", schema.ClassDischarge, pt0))

	// Within the 7-day window: active.
	if got := m.Snapshot(pt0.Add(6 * 24 * time.Hour)).Stalled; len(got) != 0 {
		t.Errorf("stalled too early: %+v", got)
	}
	// Past it: stalled, awaiting stage 0.
	got := m.Snapshot(pt0.Add(8 * 24 * time.Hour)).Stalled
	if len(got) != 1 || got[0].NextStage != 0 {
		t.Fatalf("stalled = %+v", got)
	}
	// The late event still advances the instance (observational monitor).
	m.Observe(notif("e2", "P1", schema.ClassHomeCare, pt0.Add(9*24*time.Hour)))
	if got := m.Snapshot(pt0.Add(10 * 24 * time.Hour)).Stalled; len(got) != 0 {
		t.Errorf("still stalled after late advance: %+v", got)
	}
	// Second deadline counts from the advancing event.
	if got := m.Snapshot(pt0.Add((9 + 15) * 24 * time.Hour)).Stalled; len(got) != 1 {
		t.Errorf("second-stage stall missed: %+v", got)
	}
}

func TestUnrelatedAndOutOfOrderEvents(t *testing.T) {
	m, _ := NewMonitor(dischargePathway())
	// Nursing before any discharge: no instance, counted unrelated.
	m.Observe(notif("e0", "P1", schema.ClassNursingService, pt0))
	// Blood test: unrelated class.
	m.Observe(notif("e1", "P1", schema.ClassBloodTest, pt0))
	m.Observe(notif("e2", "P1", schema.ClassDischarge, pt0.Add(time.Hour)))
	// Nursing while home care is awaited: does not advance.
	m.Observe(notif("e3", "P1", schema.ClassNursingService, pt0.Add(2*time.Hour)))

	r := m.Snapshot(pt0.Add(3 * time.Hour))
	if len(r.Active) != 1 || r.Active[0].NextStage != 0 {
		t.Fatalf("active = %+v", r.Active)
	}
	if r.Unrelated != 3 {
		t.Errorf("unrelated = %d, want 3", r.Unrelated)
	}
}

func TestInstancesArePerPersonAndPerPathway(t *testing.T) {
	second := &Pathway{
		Name:    "telecare follow-up",
		Trigger: schema.ClassDischarge,
		Stages:  []Stage{{Name: "telecare", Class: schema.ClassTelecare, Within: 30 * 24 * time.Hour}},
	}
	m, err := NewMonitor(dischargePathway(), second)
	if err != nil {
		t.Fatal(err)
	}
	// One discharge opens an instance in BOTH pathways.
	m.Observe(notif("e1", "P1", schema.ClassDischarge, pt0))
	m.Observe(notif("e2", "P2", schema.ClassDischarge, pt0))
	r := m.Snapshot(pt0.Add(time.Hour))
	if len(r.Active) != 4 {
		t.Fatalf("active = %d, want 4 (2 persons × 2 pathways)", len(r.Active))
	}
	// P1 completes telecare only.
	m.Observe(notif("e3", "P1", schema.ClassTelecare, pt0.Add(24*time.Hour)))
	r = m.Snapshot(pt0.Add(2 * 24 * time.Hour))
	if len(r.Completed) != 1 || r.Completed[0].Pathway != "telecare follow-up" {
		t.Errorf("completed = %+v", r.Completed)
	}
	if len(r.Active) != 3 {
		t.Errorf("active = %d", len(r.Active))
	}
}

func TestRetriggerAfterCompletionOpensNewInstance(t *testing.T) {
	p := &Pathway{
		Name:    "short",
		Trigger: schema.ClassDischarge,
		Stages:  []Stage{{Name: "home care", Class: schema.ClassHomeCare}},
	}
	m, _ := NewMonitor(p)
	m.Observe(notif("e1", "P1", schema.ClassDischarge, pt0))
	m.Observe(notif("e2", "P1", schema.ClassHomeCare, pt0.Add(time.Hour)))
	// A second discharge opens a fresh instance.
	m.Observe(notif("e3", "P1", schema.ClassDischarge, pt0.Add(48*time.Hour)))
	r := m.Snapshot(pt0.Add(49 * time.Hour))
	if len(r.Completed) != 1 || len(r.Active) != 1 {
		t.Errorf("report = completed %d, active %d", len(r.Completed), len(r.Active))
	}
	// Zero deadline stage never stalls.
	if got := m.Snapshot(pt0.Add(1000 * time.Hour)).Stalled; len(got) != 0 {
		t.Errorf("deadline-less stage stalled: %+v", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m, _ := NewMonitor(dischargePathway())
	m.Observe(notif("e1", "P1", schema.ClassDischarge, pt0))
	r := m.Snapshot(pt0)
	r.Active[0].Events[0] = "mutated"
	r2 := m.Snapshot(pt0)
	if r2.Active[0].Events[0] != "e1" {
		t.Error("Snapshot exposes internal state")
	}
}

func TestConcurrentObserve(t *testing.T) {
	m, _ := NewMonitor(dischargePathway())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				person := fmt.Sprintf("P-%d-%d", g, i)
				m.Observe(notif(fmt.Sprintf("d-%d-%d", g, i), person, schema.ClassDischarge, pt0))
				m.Observe(notif(fmt.Sprintf("h-%d-%d", g, i), person, schema.ClassHomeCare, pt0.Add(time.Hour)))
				m.Snapshot(pt0.Add(2 * time.Hour))
			}
		}(g)
	}
	wg.Wait()
	r := m.Snapshot(pt0.Add(2 * time.Hour))
	if len(r.Active) != 400 {
		t.Errorf("active = %d, want 400", len(r.Active))
	}
}
