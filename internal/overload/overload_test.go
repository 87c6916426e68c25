package overload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/testsupport"
)

// admit is a test helper asserting the admission outcome.
func admit(t *testing.T, g *Gate, endpoint string, pri Priority, actor string, want bool) func() {
	t.Helper()
	release, d := g.Admit(endpoint, pri, actor)
	if d.Admitted != want {
		t.Fatalf("Admit(%s, %s, %q) = %v (reason %s), want admitted=%v",
			endpoint, pri, actor, d.Admitted, d.Reason, want)
	}
	if d.Admitted && release == nil {
		t.Fatal("admitted without a release func")
	}
	if !d.Admitted && d.RetryAfter <= 0 {
		t.Fatal("shed decision carries no Retry-After hint")
	}
	return release
}

func TestPrioritySheddingOrder(t *testing.T) {
	// Budget 10: Low sheds past 5 in flight, Normal past 8, Critical at 10.
	g := NewGate(Config{MaxInFlight: 10, ActorRPS: -1})
	var releases []func()
	hold := func(n int, pri Priority) {
		for i := 0; i < n; i++ {
			releases = append(releases, admit(t, g, "ep", pri, "", true))
		}
	}
	hold(5, Critical)
	if _, d := g.Admit("ep", Low, ""); d.Admitted || d.Reason != ReasonPressure {
		t.Fatalf("low admitted at 50%% pressure: %+v", d)
	}
	admit(t, g, "ep", Normal, "", true) // 6 in flight
	hold(2, Critical)                   // 8 in flight
	if _, d := g.Admit("ep", Normal, ""); d.Admitted || d.Reason != ReasonPressure {
		t.Fatalf("normal admitted at 80%% pressure: %+v", d)
	}
	hold(2, Critical) // 10 in flight: budget exhausted
	if _, d := g.Admit("ep", Critical, ""); d.Admitted || d.Reason != ReasonPressure {
		t.Fatalf("critical admitted past the budget: %+v", d)
	}
	for _, r := range releases {
		r()
	}
	// Fully drained: even Low is admitted again.
	admit(t, g, "ep", Low, "", true)
}

func TestEndpointConcurrencyLimit(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 100, ActorRPS: -1,
		Endpoint: map[string]int{"details": 2}})
	r1 := admit(t, g, "details", Normal, "", true)
	r2 := admit(t, g, "details", Normal, "", true)
	if _, d := g.Admit("details", Normal, ""); d.Admitted || d.Reason != ReasonConcurrency {
		t.Fatalf("third details admitted: %+v", d)
	}
	// Other endpoints are unaffected.
	admit(t, g, "publish", Critical, "", true)
	r1()
	admit(t, g, "details", Normal, "", true)
	r2()
}

func TestActorRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	g := NewGate(Config{MaxInFlight: -1, ActorRPS: 1.5, Now: clock}) // burst 3
	for i := 0; i < 3; i++ {
		admit(t, g, "ep", Normal, "flooder", true)()
	}
	if _, d := g.Admit("ep", Normal, "flooder"); d.Admitted || d.Reason != ReasonRate {
		t.Fatalf("flooder admitted past its burst: %+v", d)
	}
	// A different actor has its own bucket.
	admit(t, g, "ep", Normal, "other", true)()
	// Refill: 1.5 tokens/s ⇒ 700ms buys one more admission.
	now = now.Add(700 * time.Millisecond)
	admit(t, g, "ep", Normal, "flooder", true)()
	if _, d := g.Admit("ep", Normal, "flooder"); d.Admitted {
		t.Fatal("flooder got two tokens from a one-token refill")
	}
	// An empty actor key skips rate limiting entirely.
	admit(t, g, "ep", Normal, "", true)()
}

// A request shed for pressure did no work, so it must not have spent one
// of its actor's rate tokens: a client hammering a full server would
// otherwise empty its bucket on sheds and be refused when a slot frees.
func TestShedSpendsNoRateToken(t *testing.T) {
	now := time.Unix(1000, 0)
	g := NewGate(Config{MaxInFlight: 1, ActorRPS: 1, // burst 2
		Now: func() time.Time { return now }})
	release := admit(t, g, "ep", Critical, "a", true) // 1 of 2 tokens
	for i := 0; i < 5; i++ {
		if _, d := g.Admit("ep", Critical, "a"); d.Admitted || d.Reason != ReasonPressure {
			t.Fatalf("admitted past the budget: %+v", d)
		}
	}
	release()
	admit(t, g, "ep", Critical, "a", true)() // the second token is still there
	if _, d := g.Admit("ep", Critical, "a"); d.Admitted || d.Reason != ReasonRate {
		t.Fatalf("admitted past the burst: %+v", d)
	}
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after a rate shed", got)
	}
}

func TestDrainingShedsEverything(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 10, ActorRPS: -1})
	release := admit(t, g, "ep", Critical, "", true)
	g.BeginDrain()
	if !g.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	if _, d := g.Admit("ep", Critical, ""); d.Admitted || d.Reason != ReasonDraining {
		t.Fatalf("admitted while draining: %+v", d)
	}
	// In-flight work still releases cleanly.
	release()
	if g.InFlight() != 0 {
		t.Fatalf("InFlight() = %d after release", g.InFlight())
	}
}

func TestReleaseIdempotent(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 10, ActorRPS: -1})
	release := admit(t, g, "ep", Normal, "", true)
	release()
	release() // double release must not underflow the budget
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after double release", got)
	}
}

func TestMetricsRecorded(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := NewGate(Config{MaxInFlight: 1, ActorRPS: -1, Metrics: reg})
	release := admit(t, g, "ep", Critical, "", true)
	g.Admit("ep", Low, "") // shed: pressure
	release()
	if v := testsupport.CounterValue(reg, "css_overload_admitted_total", "critical"); v != 1 {
		t.Fatalf("admitted{critical} = %d", v)
	}
	if v := testsupport.CounterValue(reg, "css_overload_shed_total", "low", ReasonPressure); v != 1 {
		t.Fatalf("shed{low,pressure} = %d", v)
	}
}

func TestBucketTableEviction(t *testing.T) {
	now := time.Unix(0, 0)
	tbl := newBucketTable(1, 1, func() time.Time { return now })
	for i := 0; i < maxActors; i++ {
		tbl.take(string(rune('a')) + string(rune(i)))
	}
	// Everyone is now idle long enough to refill; the next new actor
	// triggers the sweep instead of growing the table.
	now = now.Add(time.Hour)
	tbl.take("fresh")
	tbl.mu.Lock()
	n := len(tbl.buckets)
	tbl.mu.Unlock()
	if n > 1 {
		t.Fatalf("idle buckets not reclaimed: %d remain", n)
	}
}

func TestDrainRunsAllStepsAndRecords(t *testing.T) {
	g := NewGate(Config{})
	var order []string
	boom := errors.New("boom")
	err := Drain(context.Background(), g,
		Step{Name: "a", Run: func(context.Context) error { order = append(order, "a"); return nil }},
		Step{Name: "b", Run: func(context.Context) error { order = append(order, "b"); return boom }},
		Step{Name: "c", Run: func(context.Context) error { order = append(order, "c"); return nil }},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("Drain err = %v, want the first step error", err)
	}
	if len(order) != 3 {
		t.Fatalf("steps run = %v, want all three despite the failure", order)
	}
	if !g.Draining() {
		t.Fatal("Drain did not flip the gate to draining")
	}
}

// TestAdmitConcurrent exercises the gate under the race detector: the
// in-flight accounting must stay exact across concurrent admit/release.
func TestAdmitConcurrent(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 8, ActorRPS: -1})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				release, d := g.Admit("ep", Critical, "")
				if d.Admitted {
					release()
				}
			}
		}()
	}
	wg.Wait()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after all releases", got)
	}
}
