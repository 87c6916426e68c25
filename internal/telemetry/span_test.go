package telemetry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartSpanBuildsParentLinkedTree(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "publish")
	trace := root.Trace()
	if len(trace) != 16 {
		t.Fatalf("root minted trace %q, want 16 hex chars", trace)
	}
	childCtx, child := tr.StartSpan(ctx, "index.put")
	_, grandchild := tr.StartSpan(childCtx, "store.append")
	grandchild.End()
	child.End()
	root.End()

	spans := tr.Spans().ByTrace(trace)
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byStage := map[string]Span{}
	for _, s := range spans {
		byStage[s.Stage] = s
	}
	if byStage["publish"].Parent != "" {
		t.Fatalf("root has parent %q", byStage["publish"].Parent)
	}
	if byStage["index.put"].Parent != byStage["publish"].ID {
		t.Fatalf("child parent = %q, want root %q", byStage["index.put"].Parent, byStage["publish"].ID)
	}
	if byStage["store.append"].Parent != byStage["index.put"].ID {
		t.Fatalf("grandchild parent = %q, want child %q", byStage["store.append"].Parent, byStage["index.put"].ID)
	}
	for stage, s := range byStage {
		if s.Trace != trace {
			t.Fatalf("stage %s trace = %q, want %q", stage, s.Trace, trace)
		}
	}
}

func TestStartSpanWithoutTracerIsNoop(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "anything")
	if span != nil {
		t.Fatalf("package StartSpan without tracer returned %+v, want nil", span)
	}
	// All ActiveSpan methods must be nil-safe.
	span.SetAttr("k", "v")
	span.AddEvent("e")
	span.SetError(errors.New("boom"))
	span.End()
	if got := TraceFrom(ctx); got != "" {
		t.Fatalf("no-op StartSpan attached trace %q", got)
	}
}

func TestSpanAttrsEventsAndError(t *testing.T) {
	tr := NewTracer()
	_, span := tr.StartSpan(context.Background(), "gateway.fetch")
	trace := span.Trace()
	span.SetAttr("producer", "hospital")
	span.AddEvent("breaker.open")
	span.SetError(errors.New("connection refused"))
	span.End()
	span.End() // idempotent

	spans := tr.Spans().ByTrace(trace)
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if len(s.Attrs) != 1 || s.Attrs[0].Key != "producer" || s.Attrs[0].Value != "hospital" {
		t.Fatalf("attrs = %+v", s.Attrs)
	}
	if len(s.Events) != 1 || s.Events[0].Name != "breaker.open" {
		t.Fatalf("events = %+v", s.Events)
	}
	if s.Error != "connection refused" {
		t.Fatalf("error = %q", s.Error)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	trace, span := "4bf92f3577b34da6", "00f067aa0ba902b7"
	v := FormatTraceparent(trace, span)
	want := "00-00000000000000004bf92f3577b34da6-00f067aa0ba902b7-01"
	if v != want {
		t.Fatalf("FormatTraceparent = %q, want %q", v, want)
	}
	gotTrace, gotSpan, ok := ParseTraceparent(v)
	if !ok || gotTrace != trace || gotSpan != span {
		t.Fatalf("ParseTraceparent = (%q, %q, %v), want (%q, %q, true)", gotTrace, gotSpan, ok, trace, span)
	}

	// Foreign full-width trace IDs survive verbatim.
	foreign := "4bf92f3577b34da6a3ce929d0e0e4736"
	gotTrace, _, ok = ParseTraceparent(FormatTraceparent(foreign, span))
	if !ok || gotTrace != foreign {
		t.Fatalf("foreign trace = (%q, %v), want (%q, true)", gotTrace, ok, foreign)
	}

	for _, bad := range []string{
		"",
		"00-short-span-01",
		"ff-00000000000000004bf92f3577b34da6-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-00000000000000004bf92f3577b34da6-0000000000000000-01",
		"00-0000000000000000ZZf92f3577b34da6-00f067aa0ba902b7-01",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent(%q) accepted malformed input", bad)
		}
	}
}

// readExport decodes every span record an exporter wrote to path.
func readExport(t *testing.T, path string) []SpanRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := DecodeSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestExporterSamplingAndTailKeep pins the single keep rule: at sample
// rate 0 the tracer keeps a failed span, a slow span and a span whose
// trace won the draw, drops a fast one, and the ring and the exported
// file hold exactly the same spans.
func TestExporterSamplingAndTailKeep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	e, err := NewExporter(ExporterConfig{Path: path}, "test")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	tr.SetExporter(e)

	// The draw is taken when a span starts: this trace is drawn at 1,
	// and it would lose a draw at any rate below 0.99.
	var trace string
	for i := 0; trace == "" || headSampled(trace, 0.99); i++ {
		trace = fmt.Sprintf("%016x", i)
	}
	_, sampled := tr.StartSpan(WithTrace(context.Background(), trace), "sampled")
	tr.SetSampleRate(0)
	_, failed := tr.StartSpan(context.Background(), "failed")
	failed.SetError(errors.New("boom"))
	failed.End()
	_, slow := tr.StartSpan(context.Background(), "slow")
	slow.span.Start = slow.span.Start.Add(-DefaultSlowTail) // ran DefaultSlowTail
	slow.End()
	_, fast := tr.StartSpan(context.Background(), "fast")
	fast.End()
	sampled.End()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	ring := tr.Spans().Snapshot()
	recs := readExport(t, path)
	if len(ring) != 3 || len(recs) != len(ring) {
		t.Fatalf("ring holds %d spans, file %d; want 3 each (failed, slow, sampled)", len(ring), len(recs))
	}
	byID := map[string]SpanRecord{}
	for _, r := range recs {
		if r.Proc != "test" {
			t.Fatalf("proc = %q, want test", r.Proc)
		}
		byID[r.ID] = r
	}
	stages := map[string]bool{}
	for _, s := range ring {
		stages[s.Stage] = true
		want, got := ToRecord(s, "test"), byID[s.ID]
		if got.Trace != want.Trace || got.Stage != want.Stage || got.Parent != want.Parent ||
			got.Duration != want.Duration || got.Error != want.Error || !got.Start.Equal(want.Start) {
			t.Fatalf("file record %+v differs from ring span %+v", got, want)
		}
	}
	if !stages["failed"] || !stages["slow"] || !stages["sampled"] {
		t.Fatalf("kept stages %v, want failed+slow+sampled", stages)
	}
}

func TestHeadSamplingConsistentAcrossProcesses(t *testing.T) {
	// The keep/drop decision must depend only on (trace, rate), so two
	// daemons exporting at the same rate keep the same traces.
	kept := 0
	for i := 0; i < 1000; i++ {
		trace := fmt.Sprintf("%016x", i*2654435761)
		a := headSampled(trace, 0.5)
		b := headSampled(trace, 0.5)
		if a != b {
			t.Fatalf("inconsistent decision for %s", trace)
		}
		if a {
			kept++
		}
	}
	if kept < 350 || kept > 650 {
		t.Fatalf("rate 0.5 kept %d/1000, outside sanity band", kept)
	}
	if headSampled("any", 1.0) != true {
		t.Fatal("rate 1.0 must keep everything")
	}
	if headSampled("any", -1) != false {
		t.Fatal("negative rate must drop everything")
	}
}

func TestExporterConcurrentExportAndRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.jsonl")
	e, err := NewExporter(ExporterConfig{Path: path, MaxBytes: 4 << 10}, "test")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	tr.SetExporter(e)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, span := tr.StartSpan(context.Background(), "load.test")
				span.End()
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Dropped() != 0 {
		t.Fatalf("dropped %d spans", e.Dropped())
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("expected rotation to %s.1: %v", path, err)
	}
	// Both generations must hold only whole, decodable lines.
	total := len(readExport(t, path+".1")) + len(readExport(t, path))
	if total == 0 {
		t.Fatal("no spans survived rotation")
	}
}

func TestConcurrentSpanExportThroughTracer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	e, err := NewExporter(ExporterConfig{Path: path}, "test")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	tr.SetExporter(e)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, root := tr.StartSpan(context.Background(), "root")
				_, child := tr.StartSpan(ctx, "child")
				child.SetAttr("i", "x")
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if ring, file := tr.Spans().Len(), len(readExport(t, path)); ring != 1600 || file != ring {
		t.Fatalf("ring holds %d spans, file %d; want 1600 each", ring, file)
	}
}

func TestSLOBurnRate(t *testing.T) {
	reg := NewRegistry()
	hist := reg.Histogram("slo_test_seconds", "test latency")
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	slo := NewSLO(SLOConfig{Now: clock},
		Objective{Name: "fast", Hist: hist, Target: 0.1, Goal: 0.99})

	// Healthy period: everything under target.
	for i := 0; i < 100; i++ {
		hist.Observe(0.005)
	}
	slo.Sample()
	rep := slo.Report()
	if len(rep) != 1 || rep[0].Degraded {
		t.Fatalf("healthy objective reported degraded: %+v", rep)
	}

	// Burn: 10% of new observations blow the target, 10x the 1% error
	// budget, in every window.
	for step := 0; step < 12; step++ {
		now = now.Add(10 * time.Second)
		for i := 0; i < 9; i++ {
			hist.Observe(0.005)
		}
		hist.Observe(0.5)
		slo.Sample()
	}
	rep = slo.Report()
	if !rep[0].Degraded {
		t.Fatalf("burning objective not degraded: %+v", rep)
	}
	for _, w := range rep[0].Windows {
		if !w.Alerting {
			t.Fatalf("window %v not alerting during burn: %+v", w.Window, rep[0])
		}
		if w.BurnRate < sloBurnAlert {
			t.Fatalf("window burn rate %.2f below alert threshold", w.BurnRate)
		}
	}
	if d := slo.HealthDetail(); !strings.Contains(d, "fast") {
		t.Fatalf("health detail %q does not name the objective", d)
	}
}

func TestSLOMultiWindowGuard(t *testing.T) {
	// A short blip trips the 5-minute window but not the 30-minute one:
	// the objective must stay non-degraded (the multi-window guard).
	reg := NewRegistry()
	hist := reg.Histogram("slo_blip_seconds", "test latency")
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	slo := NewSLO(SLOConfig{Now: func() time.Time { return now }},
		Objective{Name: "blip", Hist: hist, Target: 0.1, Goal: 0.99})

	// A healthy history longer than the long window, sampled along the
	// way so both windows have real baseline points...
	for step := 0; step < 200; step++ {
		now = now.Add(10 * time.Second)
		for i := 0; i < 20; i++ {
			hist.Observe(0.005)
		}
		slo.Sample()
	}
	// ...then a 20-second blip of pure failures: 120 bad against ~600
	// good in the short window, ~3600 in the long one.
	for step := 0; step < 2; step++ {
		now = now.Add(10 * time.Second)
		for i := 0; i < 60; i++ {
			hist.Observe(0.5)
		}
		slo.Sample()
	}
	rep := slo.Report()
	short, long := rep[0].Windows[0], rep[0].Windows[1]
	if !short.Alerting {
		t.Fatalf("short window should alert on the blip: %+v", rep[0])
	}
	if long.Alerting {
		t.Fatalf("long window should absorb the blip: %+v", rep[0])
	}
	if rep[0].Degraded {
		t.Fatal("multi-window guard failed: degraded on a blip")
	}
}

func TestExemplarsConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	hist := reg.Histogram("exemplar_race_seconds", "test latency", "route")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				hist.ObserveTrace(0.001*float64(i%20), fmt.Sprintf("%016x", g*1000+i), "/ws/publish")
			}
		}(g)
	}
	wg.Wait()
	ex := hist.Exemplars("/ws/publish")
	if len(ex) == 0 {
		t.Fatal("no exemplars recorded")
	}
	for ub, x := range ex {
		if x.Trace == "" {
			t.Fatalf("bucket %v exemplar has no trace", ub)
		}
		if x.Value > ub {
			t.Fatalf("bucket %v exemplar value %v above bound", ub, x.Value)
		}
	}
}

func TestExemplarsOnMetricsOutput(t *testing.T) {
	reg := NewRegistry()
	hist := reg.Histogram("exemplar_out_seconds", "test latency")
	hist.ObserveTrace(0.003, "deadbeef00000001")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# {trace_id="deadbeef00000001"}`) {
		t.Fatalf("metrics output missing exemplar:\n%s", out)
	}
	// The exemplar must ride a _bucket line, OpenMetrics style.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "trace_id") && !strings.Contains(line, "_bucket") {
			t.Fatalf("exemplar on non-bucket line: %s", line)
		}
	}
}
