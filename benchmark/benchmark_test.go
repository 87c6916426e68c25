package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/enforcer"
	"repro/internal/event"
)

// synthetic builds a measured phase of `seconds` seconds in which every
// latency is `slow` times longer during the second half: the host slows
// down under the system and the echo process alike.
func synthetic(seconds int, slow float64) ([]flowSample, []echoSample, time.Duration) {
	rnd := rand.New(rand.NewSource(7))
	phase := time.Duration(seconds) * time.Second
	var flows []flowSample
	var echoes []echoSample
	for at := time.Duration(0); at < phase; at += time.Millisecond {
		factor := 1.0
		if at >= phase/2 {
			factor = slow
		}
		jitter := 0.8 + 0.4*rnd.Float64()
		request := time.Duration(400e3 * factor * jitter)
		flows = append(flows, flowSample{at: at, request: request, flow: 2 * request})
		if at%(4*time.Millisecond) == 0 {
			echoes = append(echoes, echoSample{at: at, rtt: time.Duration(200e3 * factor * (0.9 + 0.2*rnd.Float64()))})
		}
	}
	return flows, echoes, phase
}

func TestNormalisedMedianSurvivesASlowdown(t *testing.T) {
	flows, echoes, phase := synthetic(10, 1)
	steady := summarise(flows, echoes, phase)
	flows, echoes, phase = synthetic(10, 1.3)
	slowed := summarise(flows, echoes, phase)

	if steady.usedWindows != windows || slowed.usedWindows != windows {
		t.Fatalf("windows used: %d and %d, want %d", steady.usedWindows, slowed.usedWindows, windows)
	}
	// 400us over 200us, and the flow twice that.
	if math.Abs(steady.requestP50-2) > 0.05 || math.Abs(steady.flowP50-4) > 0.1 {
		t.Errorf("steady p50: request %.3f rtt, flow %.3f rtt; want 2 and 4", steady.requestP50, steady.flowP50)
	}
	for name, pair := range map[string][2]float64{
		"request_p50_rtt": {steady.requestP50, slowed.requestP50},
		"request_p95_rtt": {steady.requestP95, slowed.requestP95},
		"flow_p50_rtt":    {steady.flowP50, slowed.flowP50},
		"flow_p95_rtt":    {steady.flowP95, slowed.flowP95},
	} {
		if drift := math.Abs(pair[1]-pair[0]) / pair[0]; drift > 0.03 {
			t.Errorf("%s moved %.1f%% under a 30%% mid-run slowdown (%.3f to %.3f); want at most 3%%",
				name, drift*100, pair[0], pair[1])
		}
	}
	// The raw milliseconds do move: that is what the rtt unit is for.
	if slowed.requestMs[0] < steady.requestMs[0]*1.05 {
		t.Errorf("raw p50 did not move: %.4f ms steady, %.4f ms slowed", steady.requestMs[0], slowed.requestMs[0])
	}
}

func TestQuantilesAndSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.95: 4.8, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if got := relSpread(xs); got != 2.0/3 {
		t.Errorf("relSpread = %v, want 2/3", got)
	}
	if quantile(nil, 0.5) != 0 || relSpread(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestSparseWindowsAreSkipped(t *testing.T) {
	flows, echoes, phase := synthetic(10, 1)
	// Stall the host for the fourth second: no flow or echo starts in it.
	kept := flows[:0]
	for _, f := range flows {
		if f.at < 3*time.Second || f.at >= 4*time.Second {
			kept = append(kept, f)
		}
	}
	sum := summarise(kept, echoes, phase)
	if sum.usedWindows != windows-1 {
		t.Errorf("used %d windows, want %d", sum.usedWindows, windows-1)
	}
	if math.Abs(sum.requestP50-2) > 0.05 {
		t.Errorf("request p50 %.3f rtt, want 2", sum.requestP50)
	}
}

func TestClosedLoopKeepsOneFlowPerClient(t *testing.T) {
	var inFlight, worst atomic.Int32
	flow := func(_ context.Context, client, i int) (time.Duration, error) {
		n := inFlight.Add(1)
		for {
			w := worst.Load()
			if n <= w || worst.CompareAndSwap(w, n) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		inFlight.Add(-1)
		if i%10 == 9 {
			return 0, errors.New("every tenth flow fails")
		}
		return time.Microsecond, nil
	}
	echoed := atomic.Int32{}
	res := runClosedLoop(context.Background(), 0, 500, flow, func(int) error { echoed.Add(1); return nil })
	if worst.Load() > clients || res.maxInFlight > clients {
		t.Errorf("%d flows in flight (loop saw %d), want at most %d", worst.Load(), res.maxInFlight, clients)
	}
	if res.attempted != 500 || res.failed != 50 || len(res.flows) != 450 {
		t.Errorf("attempted %d, failed %d, samples %d; want 500, 50, 450", res.attempted, res.failed, len(res.flows))
	}
	if echoed.Load() == 0 || len(res.echoes) != int(echoed.Load()) {
		t.Errorf("%d echoes made, %d recorded", echoed.Load(), len(res.echoes))
	}

	// A duration ends the loop though flows remain.
	res = runClosedLoop(context.Background(), 20*time.Millisecond, 1<<30, flow, nil)
	if res.attempted == 0 || res.attempted == 1<<30 || res.phase != 20*time.Millisecond {
		t.Errorf("timed loop: attempted %d over %v", res.attempted, res.phase)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "flow", ID: 1, Start: 0, End: 100},
		{Name: "core.publish", ID: 2, Parent: 1, Start: 10, End: 60},
		{Name: "idmap.assign", ID: 3, Parent: 2, Start: 12, End: 22},
		{Name: "index.put", ID: 4, Parent: 2, Start: 25, End: 55},
		// Two deliveries on two goroutines, overlapping each other and
		// one of them running past its parent's end.
		{Name: "bus.deliver_wait", ID: 5, Parent: 1, Start: 60, End: 90},
		{Name: "transport.callback_post", ID: 6, Parent: 5, Start: 62, End: 80},
		{Name: "transport.callback_post", ID: 7, Parent: 5, Start: 70, End: 95},
	}
	want := []int64{100 - 50 - 30, 50 - 10 - 30, 10, 30, 30 - 28, 18, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s (id %d) = %d, want %d", spans[i].Name, spans[i].ID, got[i], want[i])
		}
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	rec := &recorder{t0: time.Now()}
	if id := rec.begin("x", 0, 0); id != 0 {
		t.Fatalf("recording off: begin returned %d", id)
	}
	rec.end(0)
	rec.on.Store(true)
	parent := rec.begin("parent", 3, 0)
	child := rec.begin("child", 3, parent)
	rec.end(child)
	rec.end(parent)
	if len(rec.spans) != 2 || rec.spans[1].Parent != parent || rec.spans[1].Flow != 3 ||
		rec.spans[0].End < rec.spans[1].End || rec.spans[1].Start < rec.spans[0].Start {
		t.Errorf("spans: %+v", rec.spans)
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (css controller (v2)) S 1 4242 4242 0 -1 4194560 2514 0 0 0 137 41 0 0 20 0 9 0 8834 1271377920 6345 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 1780 {
		t.Errorf("parseProcStat = %v, %v; want 1780 ms", cpu, err)
	}
	if _, err := parseProcStat("4242 css S 1"); err == nil {
		t.Error("parseProcStat accepted a line without a command name")
	}
	status := "Name:\tcss-controller\nVmPeak:\t 1241580 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\nThreads:\t9\n"
	hwm, rss, err := parseProcStatus(status)
	if err != nil || hwm != 200 || rss != 100 {
		t.Errorf("parseProcStatus = %v, %v, %v; want 200, 100", hwm, rss, err)
	}
	if _, _, err := parseProcStatus("Name:\tx\nVmRSS:\t 1 kB\n"); err == nil {
		t.Error("parseProcStatus accepted a status without VmHWM")
	}
}

func TestMetricsParser(t *testing.T) {
	text := `# HELP css_cache_events_total Cache lookups.
# TYPE css_cache_events_total counter
css_cache_events_total{cache="pdp.decision",result="hit"} 90
css_cache_events_total{cache="pdp.decision",result="miss"} 10
css_cache_events_total{cache="gateway.detail",result="hit"} 5
css_overload_shed_total{priority="low",reason="rate"} 2
css_overload_shed_total{priority="normal",reason="inflight"} 3
css_bus_queue_depth_hwm 8
css_stage_seconds_bucket{stage="http GET /ws/catalog",le="0.0001"} 1061 # {trace_id="12f3da201c95f745"} 3.2158e-05 1790360283.728
css_publish_seconds_sum 0.25 1790360283728
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		want   float64
		name   string
		labels []string
	}{
		{105, "css_cache_events_total", nil},
		{90, "css_cache_events_total", []string{`cache="pdp.decision"`, `result="hit"`}},
		{5, "css_overload_shed_total", nil},
		{8, "css_bus_queue_depth_hwm", nil},
		{1061, "css_stage_seconds_bucket", []string{`le="0.0001"`}},
		{0.25, "css_publish_seconds_sum", nil},
		{0, "css_absent_total", nil},
	} {
		if got := m.sum(c.name, c.labels...); got != c.want {
			t.Errorf("sum(%s, %v) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	if _, err := parseMetrics(strings.NewReader("css_broken_total\n")); err == nil {
		t.Error("parseMetrics accepted a line without a value")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sz := sizes{people: 500, history: 300, warmup: 20, flows: 200, traced: 50}
	for _, s := range specs() {
		a, err := generate(s, 42, sz, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(s, 42, sz, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(s, 43, sz, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: the same seed gave different inputs", s.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: different seeds gave the same inputs", s.name)
		}
		if len(a.history) != sz.history || len(a.flows) != sz.warmup+sz.flows {
			t.Errorf("%s: %d history events and %d flows", s.name, len(a.history), len(a.flows))
		}
		if s.read {
			kinds := map[flowKind]int{}
			for _, f := range a.flows {
				kinds[f.kind]++
			}
			if kinds[flowDenyPolicy] == 0 || kinds[flowDenyConsent] == 0 || kinds[flowPermit] < len(a.flows)/2 {
				t.Errorf("%s: flow kinds %v", s.name, kinds)
			}
		}
	}
}

func testOracle(t *testing.T) (*oracle, *event.Detail) {
	t.Helper()
	pols, err := standardPolicies()
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(&inputs{policies: tabulate(pols)})
	stored := &event.Detail{SourceID: "lab-1", Class: "hospital.blood-test", Producer: gatewayProducer,
		Fields: map[event.FieldName]string{"hemoglobin": "13.1", "aids-test": "negative", "lab-notes": "n/a"}}
	return o, stored
}

func TestOracleCountsPrivacyViolations(t *testing.T) {
	o, stored := testOracle(t)
	const doctor, treatment = event.Actor("family-doctor"), event.PurposeHealthcareTreatment
	released := &event.Detail{SourceID: stored.SourceID, Class: stored.Class,
		Fields: map[event.FieldName]string{"hemoglobin": "13.1", "aids-test": "", "lab-notes": ""}}
	if err := o.checkDetail(doctor, treatment, stored, released); err != nil {
		t.Errorf("a release within the policy failed: %v", err)
	}
	if err := o.checkDenied(nil, enforcer.ErrDenied); err != nil {
		t.Errorf("a denial of a must-deny request failed: %v", err)
	}
	if n := o.violations.Load(); n != 0 {
		t.Fatalf("%d violations before any", n)
	}

	for name, err := range map[string]error{
		"a field outside the policy": o.checkDetail(doctor, treatment, stored, &event.Detail{Class: stored.Class,
			Fields: map[event.FieldName]string{"hemoglobin": "13.1", "aids-test": "negative"}}),
		"a wrong value": o.checkDetail(doctor, treatment, stored, &event.Detail{Class: stored.Class,
			Fields: map[event.FieldName]string{"hemoglobin": "9.9"}}),
		"a release without a policy": o.checkDetail("hospital-s-maria/ward", treatment, stored, released),
		"a must-deny answered":       o.checkDenied(released, nil),
	} {
		if !errors.Is(err, errPrivacy) {
			t.Errorf("%s: got %v, want a privacy violation", name, err)
		}
	}
	if n := o.violations.Load(); n != 4 {
		t.Errorf("%d violations counted, want 4", n)
	}
	// A must-deny request that fails for another reason fails the flow
	// without being a violation.
	if err := o.checkDenied(nil, errors.New("connection refused")); err == nil || errors.Is(err, errPrivacy) {
		t.Errorf("a transport error on a must-deny request: %v", err)
	}
}

// A must-deny flow answered with data is a failed flow and makes the
// command exit non-zero.
func TestViolationFailsTheRun(t *testing.T) {
	o, stored := testOracle(t)
	flow := func(_ context.Context, _, i int) (time.Duration, error) {
		if i == 3 {
			return 0, o.checkDenied(stored, nil) // the system released data it had to withhold
		}
		return time.Microsecond, o.checkDenied(nil, enforcer.ErrDenied)
	}
	loop := runClosedLoop(context.Background(), 0, 10, flow, nil)
	res := &result{attempted: loop.attempted, failed: loop.failed, violations: o.violations.Load()}
	res.judge()
	if res.failed != 1 || res.correct || res.exitCode() == 0 {
		t.Errorf("failed %d, correct %v, exit code %d; want 1, false, non-zero", res.failed, res.correct, res.exitCode())
	}
	clean := &result{attempted: 10}
	clean.judge()
	if !clean.correct || clean.exitCode() != 0 {
		t.Errorf("a clean run: correct %v, exit code %d", clean.correct, clean.exitCode())
	}
	broken := &result{attempted: 10, problems: []string{"css-audit -verify controller0: exit status 1"}}
	broken.judge()
	if broken.correct || broken.exitCode() == 0 {
		t.Errorf("a broken chain: correct %v, exit code %d", broken.correct, broken.exitCode())
	}
}

// BENCHMARK.json at the root of the repository and the catalogue in this
// package name the same workloads and metrics.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(specs()))
	}
	for i, s := range specs() {
		if doc.Workloads[i].Name != s.name || doc.Workloads[i].Why == "" || len(doc.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness (why: %d characters)",
				i, doc.Workloads[i].Name, s.name, len(doc.Workloads[i].Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the catalogue", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := doc.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the catalogue", i, m, d)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
