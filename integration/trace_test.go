package integration

import (
	"bytes"
	"context"
	"encoding/xml"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// lockedBuffer lets the test read a live process's output safely.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func waitURL(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s did not come up", url)
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(data)
}

// TestDistributedTraceAcrossThreeProcesses drives one
// publish→notify→detail flow across a css-controller, a css-gateway and
// css-consumer processes and asserts the whole flow shares ONE trace
// whose spans form a parent-linked tree covering every pipeline stage —
// then reconstructs it with the css-trace CLI.
func TestDistributedTraceAcrossThreeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dataDir := t.TempDir()
	gwDir := t.TempDir()
	ctrlSpans := filepath.Join(dataDir, "ctrl-spans.jsonl")
	gwSpans := filepath.Join(gwDir, "gw-spans.jsonl")

	ctrlAddr, gwAddr := freePort(t), freePort(t)
	ctrlURL, gwURL := "http://"+ctrlAddr, "http://"+gwAddr

	// Process 1: the data controller, provisioned with the demo scenario
	// but pointed at the *remote* gateway for the hospital producer.
	ctrl := exec.Command(bin("css-controller"),
		"-addr", ctrlAddr, "-data", dataDir, "-scenario",
		"-gateway", "hospital-s-maria="+gwURL,
		"-span-file", ctrlSpans, "-span-sample", "1.0")
	var ctrlLog lockedBuffer
	ctrl.Stdout, ctrl.Stderr = &ctrlLog, &ctrlLog
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctrl.Process.Kill()
		ctrl.Wait()
	}()
	waitReady(t, ctrlURL)

	// Process 2: the hospital's cooperation gateway, relaying publishes
	// to the controller.
	gw := exec.Command(bin("css-gateway"),
		"-addr", gwAddr, "-producer", "hospital-s-maria",
		"-data", gwDir, "-controller", ctrlURL,
		"-span-file", gwSpans, "-span-sample", "1.0")
	var gwLog lockedBuffer
	gw.Stdout, gw.Stderr = &gwLog, &gwLog
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		gw.Process.Kill()
		gw.Wait()
	}()
	waitURL(t, gwURL+"/healthz")

	// Process 3: the consumer, subscribed to blood tests through a live
	// callback endpoint.
	consumer := exec.Command(bin("css-consumer"),
		"-controller", ctrlURL, "-actor", "family-doctor",
		"subscribe", "-class", "hospital.blood-test")
	var consumerOut lockedBuffer
	consumer.Stdout, consumer.Stderr = &consumerOut, &consumerOut
	if err := consumer.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		consumer.Process.Kill()
		consumer.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(consumerOut.String(), "subscribed as") {
		if time.Now().After(deadline) {
			t.Fatalf("consumer did not subscribe:\n%s", consumerOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The source system persists the full detail at its gateway, then
	// publishes the notification through the gateway's relay. The trace
	// is minted on this first hop and must survive every later one.
	rg := transport.NewRemoteGateway(gwURL, nil)
	detail := event.NewDetail(schema.ClassBloodTest, "trace-src-1", "hospital-s-maria").
		Set("patient-id", "PRS-TRACE").
		Set("exam-date", "2010-05-30").
		Set("hemoglobin", "13.5").
		Set("aids-test", "negative").
		Set("lab-notes", "routine")
	if err := rg.Persist(context.Background(), detail); err != nil {
		t.Fatalf("persist: %v", err)
	}

	body, err := event.EncodeNotification(&event.Notification{
		SourceID: "trace-src-1", Class: schema.ClassBloodTest, PersonID: "PRS-TRACE",
		Summary: "blood test completed", OccurredAt: time.Date(2010, 6, 1, 9, 0, 0, 0, time.UTC),
		Producer: "hospital-s-maria",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(gwURL+"/gw/publish", "application/xml", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("relay publish: %v", err)
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relay publish: %s\n%s", resp.Status, respBody)
	}
	trace := resp.Header.Get(telemetry.TraceHeader)
	if len(trace) != 16 {
		t.Fatalf("relay response trace = %q, want 16 hex chars", trace)
	}
	var pub struct {
		XMLName xml.Name `xml:"publishResponse"`
		EventID string   `xml:"eventId"`
	}
	if err := xml.Unmarshal(respBody, &pub); err != nil || pub.EventID == "" {
		t.Fatalf("relay response %q: %v", respBody, err)
	}

	// The notification reaches the consumer carrying the same trace.
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(consumerOut.String(), "trace="+trace) {
		if time.Now().After(deadline) {
			t.Fatalf("delivery with trace %s never arrived:\n%s", trace, consumerOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Phase two: the consumer requests details, quoting the notification's
	// trace, which sends the flow back through the controller's PDP to
	// the gateway's filtered retrieval.
	details := run(t, "css-consumer", "-controller", ctrlURL, "-actor", "family-doctor",
		"details", "-event", pub.EventID, "-class", "hospital.blood-test",
		"-purpose", "healthcare-treatment", "-trace", trace)
	if !strings.Contains(details, "hemoglobin") {
		t.Fatalf("details: %s", details)
	}
	if strings.Contains(details, "aids-test") {
		t.Fatalf("details leaked a filtered field: %s", details)
	}

	// Merge both processes' span rings and assert the flow is one
	// parent-linked tree covering the whole pipeline.
	merged := httpGetBody(t, ctrlURL+"/debug/spans?trace="+trace) +
		httpGetBody(t, gwURL+"/debug/spans?trace="+trace)
	mergedPath := filepath.Join(dataDir, "merged-spans.jsonl")
	if err := os.WriteFile(mergedPath, []byte(merged), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.DecodeSpans(strings.NewReader(merged))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	stages := map[string]bool{}
	procs := map[string]bool{}
	for _, r := range recs {
		if r.Trace != trace {
			t.Fatalf("span %s/%s leaked into trace filter", r.Trace, r.Stage)
		}
		ids[r.ID] = true
		stages[r.Stage] = true
		procs[r.Proc] = true
	}
	for _, want := range []string{
		"publish", "index.put", "bus.publish", "bus.deliver",
		"detail.request", "consent.check", "pdp.decide", "gateway.fetch",
	} {
		if !stages[want] {
			t.Fatalf("trace %s missing stage %q (has %v)", trace, want, keys(stages))
		}
	}
	if !procs["controller"] || !procs["gateway"] {
		t.Fatalf("trace spans procs = %v, want controller+gateway", keys(procs))
	}
	orphans := 0
	for _, r := range recs {
		if r.Parent != "" && !ids[r.Parent] {
			orphans++
			t.Errorf("orphan span %s (parent %s missing)", r.Stage, r.Parent)
		}
	}
	if orphans > 0 {
		t.Fatalf("%d orphan spans in trace %s", orphans, trace)
	}

	// The css-trace CLI reconstructs the same waterfall (exit 0 = no
	// orphans) and aggregates slowest stages.
	waterfall := run(t, "css-trace", "-trace", trace, mergedPath)
	for _, want := range []string{"publish", "gateway.fetch", "bus.deliver"} {
		if !strings.Contains(waterfall, want) {
			t.Fatalf("css-trace waterfall missing %q:\n%s", want, waterfall)
		}
	}
	if strings.Contains(waterfall, "ORPHAN") {
		t.Fatalf("css-trace reported orphans:\n%s", waterfall)
	}
	agg := run(t, "css-trace", "-stages", mergedPath)
	if !strings.Contains(agg, "pdp.decide") {
		t.Fatalf("css-trace -stages: %s", agg)
	}
	scrape := run(t, "css-trace", "-trace", trace, ctrlURL, gwURL)
	if !strings.Contains(scrape, "detail.request") {
		t.Fatalf("css-trace live scrape: %s", scrape)
	}

	// The same histograms carry the trace as exemplar, and the SLO
	// report derives burn rates from them.
	metrics := httpGetBody(t, ctrlURL+"/metrics")
	if !strings.Contains(metrics, `trace_id="`) {
		t.Fatal("/metrics has no exemplars")
	}
	sloBody := httpGetBody(t, ctrlURL+"/slo")
	for _, want := range []string{`"publish"`, `"detail-permit"`, `"burn_rate"`} {
		if !strings.Contains(sloBody, want) {
			t.Fatalf("/slo missing %s: %s", want, sloBody)
		}
	}

	// The controller's ring and its span file are filled by one keep
	// decision, so they hold the same spans of the trace.
	ring, err := telemetry.DecodeSpans(strings.NewReader(httpGetBody(t, ctrlURL+"/debug/spans?trace="+trace)))
	if err != nil {
		t.Fatal(err)
	}

	// Graceful shutdown flushes the durable span export; the flow is
	// reconstructable offline, and css-audit joins audit records with
	// span timings.
	ctrl.Process.Signal(syscall.SIGTERM)
	ctrl.Wait()
	f, err := os.Open(ctrlSpans)
	if err != nil {
		t.Fatalf("span export file: %v", err)
	}
	exported, err := telemetry.DecodeSpans(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var fileIDs []string
	for _, r := range exported {
		if r.Trace != trace {
			continue
		}
		fileIDs = append(fileIDs, r.ID)
		if r.Stage == "publish" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exported span file has no publish span for trace %s (%d records)", trace, len(exported))
	}
	var ringIDs []string
	for _, r := range ring {
		ringIDs = append(ringIDs, r.ID)
	}
	slices.Sort(ringIDs)
	slices.Sort(fileIDs)
	if !slices.Equal(ringIDs, fileIDs) {
		t.Fatalf("trace %s: /debug/spans holds %d spans, the span file %d; want the same spans", trace, len(ringIDs), len(fileIDs))
	}
	auditOut := run(t, "css-audit", "-data", dataDir, "-trace", trace, "-spans", ctrlSpans)
	if !strings.Contains(auditOut, "stage timings for trace "+trace) ||
		!strings.Contains(auditOut, "detail.request") {
		t.Fatalf("css-audit -spans: %s", auditOut)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceSmoke is the make trace-smoke entry point: it reuses the
// three-process flow assertions above under a recognizable name.
func TestTraceSmoke(t *testing.T) {
	if os.Getenv("TRACE_SMOKE") == "" {
		t.Skip("set TRACE_SMOKE=1 to run (alias of TestDistributedTraceAcrossThreeProcesses)")
	}
	TestDistributedTraceAcrossThreeProcesses(t)
}
