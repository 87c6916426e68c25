package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("css_publish_total", "Notifications accepted.")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
	out := expose(t, r)
	for _, want := range []string{
		"# HELP css_publish_total Notifications accepted.\n",
		"# TYPE css_publish_total counter\n",
		"css_publish_total 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("css_detail_decisions_total", "Decisions.", "outcome")
	c.Inc("permit")
	c.Inc("deny")
	c.Inc("deny")
	out := expose(t, r)
	if !strings.Contains(out, `css_detail_decisions_total{outcome="deny"} 2`) {
		t.Errorf("missing deny sample:\n%s", out)
	}
	if !strings.Contains(out, `css_detail_decisions_total{outcome="permit"} 1`) {
		t.Errorf("missing permit sample:\n%s", out)
	}
	// Children render in sorted label order: deny before permit.
	if strings.Index(out, `outcome="deny"`) > strings.Index(out, `outcome="permit"`) {
		t.Errorf("children not sorted:\n%s", out)
	}
}

func TestGaugeExposition(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("css_http_inflight_requests", "In flight.")
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("Value = %v, want 3", got)
	}
	out := expose(t, r)
	if !strings.Contains(out, "# TYPE css_http_inflight_requests gauge\n") {
		t.Errorf("missing gauge TYPE line:\n%s", out)
	}
	if !strings.Contains(out, "css_http_inflight_requests 3\n") {
		t.Errorf("missing gauge sample:\n%s", out)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("css_publish_seconds", "Publish latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // ≤ 0.001
	h.Observe(0.05)   // ≤ 0.1
	h.Observe(3)      // > all buckets → only +Inf
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := h.Sum(); got < 3.05 || got > 3.06 {
		t.Fatalf("Sum = %v, want ~3.0505", got)
	}
	out := expose(t, r)
	for _, want := range []string{
		"# TYPE css_publish_seconds histogram\n",
		`css_publish_seconds_bucket{le="0.001"} 1`,
		`css_publish_seconds_bucket{le="0.01"} 1`,
		`css_publish_seconds_bucket{le="0.1"} 2`,
		`css_publish_seconds_bucket{le="+Inf"} 3`,
		"css_publish_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("css_delivery_seconds", "Delivery latency.")
	h.ObserveDuration(2 * time.Millisecond)
	if got := h.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	if s := h.Sum(); s < 0.0019 || s > 0.0021 {
		t.Fatalf("Sum = %v, want ~0.002", s)
	}
}

func TestEmptyFamiliesOmitted(t *testing.T) {
	r := NewRegistry()
	r.Counter("css_never_touched_total", "Never incremented.", "label")
	if out := expose(t, r); out != "" {
		t.Fatalf("empty labeled family should render nothing, got:\n%s", out)
	}
}

func TestReRegisterReturnsSameFamily(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("css_x_total", "X.")
	b := r.Counter("css_x_total", "X.")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("shared family Value = %d, want 2", got)
	}
}

func TestReRegisterTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("css_x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	r.Gauge("css_x_total", "X.")
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "Z.").Inc()
	r.Counter("aaa_total", "A.").Inc()
	out := expose(t, r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("css_esc_total", "Esc.", "route").Inc(`pa"th\n`)
	out := expose(t, r)
	if !strings.Contains(out, `route="pa\"th\\n"`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("css_conc_total", "Concurrent.", "worker")
	h := r.Histogram("css_conc_seconds", "Concurrent.")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := string(rune('a' + id))
			for j := 0; j < 1000; j++ {
				c.Inc(name)
				h.Observe(0.001)
			}
		}(i)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 8; i++ {
		total += c.Value(string(rune('a' + i)))
	}
	if total != 8000 {
		t.Fatalf("total = %d, want 8000", total)
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

// Exemplars are held by value: the sampled store (one in
// exemplarInterval traced observations) writes into the child without
// allocating.
func TestExemplarStoreAllocatesNothing(t *testing.T) {
	ch := NewRegistry().Histogram("css_alloc_seconds", "Allocs.").Child()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < exemplarInterval; i++ {
			ch.ObserveDurationTrace(time.Millisecond, "feedbeefcafe0001")
		}
	})
	if allocs != 0 {
		t.Fatalf("%d traced observations: %v allocs, want 0", exemplarInterval, allocs)
	}
}
