package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/schema"
)

// TestTraceCorrelatesTwoPhaseFlow is the observability acceptance test:
// the trace ID minted at Publish rides on the delivered notification, and
// when the consumer quotes it on the follow-up detail request, every
// audit record of both phases — publish, permitted request, denied
// request — carries that same trace.
func TestTraceCorrelatesTwoPhaseFlow(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)

	var mu sync.Mutex
	var delivered []*event.Notification
	if _, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(n *event.Notification) {
		mu.Lock()
		delivered = append(delivered, n)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	gid := w.producePublish(t, "src-1", "PRS-1")
	if !w.c.Flush(flushTimeout) {
		t.Fatal("Flush timed out")
	}
	mu.Lock()
	if len(delivered) != 1 {
		mu.Unlock()
		t.Fatalf("delivered %d notifications", len(delivered))
	}
	trace := delivered[0].Trace
	mu.Unlock()
	if len(trace) != 16 {
		t.Fatalf("delivered notification trace = %q, want 16 hex chars", trace)
	}

	pubRecs, err := w.c.Audit().Search(audit.Query{Kind: audit.KindPublish, EventID: gid})
	if err != nil {
		t.Fatal(err)
	}
	if len(pubRecs) != 1 || pubRecs[0].Trace != trace {
		t.Fatalf("publish audit trace = %+v, want trace %s", pubRecs, trace)
	}

	// Phase two, permitted: the consumer quotes the notification's trace.
	req := w.request(gid)
	req.Trace = trace
	if _, err := w.c.RequestDetails(req); err != nil {
		t.Fatal(err)
	}
	permits, err := w.c.Audit().Search(audit.Query{
		Kind: audit.KindDetailRequest, Outcome: "permit", Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(permits) != 1 {
		t.Fatalf("permit audit records for trace %s = %d, want 1", trace, len(permits))
	}

	// Phase two, denied: an unauthorized purpose under the same trace.
	denyReq := w.request(gid)
	denyReq.Purpose = event.PurposeStatisticalAnalysis
	denyReq.Trace = trace
	if _, err := w.c.RequestDetails(denyReq); err == nil {
		t.Fatal("statistical-analysis purpose should be denied")
	}
	denies, err := w.c.Audit().Search(audit.Query{
		Kind: audit.KindDetailRequest, Outcome: "deny", Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(denies) != 1 {
		t.Fatalf("deny audit records for trace %s = %d, want 1", trace, len(denies))
	}
}

func TestDetailRequestMintsTraceWhenAbsent(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	gid := w.producePublish(t, "src-1", "PRS-1")
	if _, err := w.c.RequestDetails(w.request(gid)); err != nil {
		t.Fatal(err)
	}
	recs, err := w.c.Audit().Search(audit.Query{Kind: audit.KindDetailRequest})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Trace) != 16 {
		t.Fatalf("audit records = %+v, want one with a minted 16-char trace", recs)
	}
}

func TestSpansCoverFlowStages(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	gid := w.producePublish(t, "src-1", "PRS-1")

	pubRecs, err := w.c.Audit().Search(audit.Query{Kind: audit.KindPublish, EventID: gid})
	if err != nil || len(pubRecs) != 1 {
		t.Fatalf("publish audit = %+v, %v", pubRecs, err)
	}
	stages := func(trace string) map[string]bool {
		m := make(map[string]bool)
		for _, s := range w.c.Spans().ByTrace(trace) {
			m[s.Stage] = true
		}
		return m
	}
	pub := stages(pubRecs[0].Trace)
	for _, want := range []string{"index.put", "audit.append", "bus.publish"} {
		if !pub[want] {
			t.Errorf("publish trace missing stage %q (got %v)", want, pub)
		}
	}

	req := w.request(gid)
	req.Trace = "feedc0de00000001"
	if _, err := w.c.RequestDetails(req); err != nil {
		t.Fatal(err)
	}
	det := stages("feedc0de00000001")
	for _, want := range []string{"consent.check", "pdp.decide", "gateway.fetch"} {
		if !det[want] {
			t.Errorf("detail trace missing stage %q (got %v)", want, det)
		}
	}
}

func TestFlowCountersInRegistry(t *testing.T) {
	w := newWorld(t)
	w.doctorPolicy(t)
	gid := w.producePublish(t, "src-1", "PRS-1")
	if _, err := w.c.RequestDetails(w.request(gid)); err != nil {
		t.Fatal(err)
	}
	deny := w.request(gid)
	deny.Purpose = event.PurposeStatisticalAnalysis
	if _, err := w.c.RequestDetails(deny); err == nil {
		t.Fatal("expected deny")
	}
	if _, err := w.c.InquireIndex("family-doctor", index.Inquiry{PersonID: "PRS-1"}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := w.c.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"css_publish_total 1",
		`css_detail_decisions_total{outcome="deny"} 1`,
		`css_detail_decisions_total{outcome="permit"} 1`,
		"css_index_inquiries_total 1",
		"css_publish_seconds_count 1",
		`css_detail_request_seconds_count{outcome="permit"} 1`,
		`css_stage_seconds_count{stage="index.put"} 1`,
		`css_stage_seconds_count{stage="bus.publish"} 1`,
		`css_stage_seconds_count{stage="consent.check"} 2`,
		`css_stage_seconds_count{stage="pdp.decide"} 2`,
		`css_stage_seconds_count{stage="gateway.fetch"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("controller metrics missing %q:\n%s", want, out)
		}
	}
}

func TestControllersDoNotShareDefaultRegistry(t *testing.T) {
	a := newWorld(t)
	b := newWorld(t)
	a.producePublish(t, "src-1", "PRS-1")
	if got := counter(b.c, "css_publish_total"); got != 0 {
		t.Fatalf("second controller Published = %d, want 0", got)
	}
	if err := a.c.Healthy(); err != nil {
		t.Fatalf("Healthy() on open controller = %v", err)
	}
	b.c.Close()
	if err := b.c.Healthy(); err == nil {
		t.Fatal("Healthy() on closed controller should fail")
	}
}
