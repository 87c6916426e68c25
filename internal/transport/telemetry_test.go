package transport

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

func (r *rig) metrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(r.ctrlServer.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpointExposesFlowCounters(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	gid := r.produce(t, "src-1", "PRS-1")
	if _, err := r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeStatisticalAnalysis,
	}); err == nil {
		t.Fatal("statistical-analysis purpose should be denied")
	}

	out := r.metrics(t)
	for _, want := range []string{
		"css_publish_total 1",
		`css_detail_decisions_total{outcome="permit"} 1`,
		`css_detail_decisions_total{outcome="deny"} 1`,
		"# TYPE css_publish_seconds histogram",
		`css_publish_seconds_bucket{le="+Inf"} 1`,
		`css_detail_request_seconds_count{outcome="permit"} 1`,
		`css_http_requests_total{route="/ws/publish",method="POST",code="200"} 1`,
		"# TYPE css_http_request_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// A request is labelled by the route it matched: a path no route
// serves is counted under one fixed label and opens no span, so after
// three made-up paths no /metrics line names any of them.
func TestUnmatchedPathsNameNoSeries(t *testing.T) {
	r := newRig(t)
	for _, path := range []string{"/nope-1", "/nope-2", "/nope-3"} {
		resp, err := http.Get(r.ctrlServer.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	r.produce(t, "src-1", "PRS-1")
	out := r.metrics(t)
	var named []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "/nope") {
			named = append(named, line)
		}
	}
	if len(named) > 0 {
		t.Errorf("%d /metrics lines name a made-up path, the first: %s", len(named), named[0])
	}
	for _, want := range []string{
		`css_http_requests_total{route="` + telemetry.UnmatchedRoute + `",method="GET",code="404"} 3`,
		`css_http_requests_total{route="/ws/publish",method="POST",code="200"} 1`,
		`css_stage_seconds_count{stage="http POST /ws/publish"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	r := newRig(t)
	resp, err := http.Get(r.ctrlServer.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200", resp.StatusCode)
	}
	r.ctrl.Close()
	resp, err = http.Get(r.ctrlServer.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after Close status = %d, want 503", resp.StatusCode)
	}
}

func TestFailedCallbackDeliveryIsCounted(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer broken.Close()
	if _, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, broken.URL); err != nil {
		t.Fatal(err)
	}
	r.produce(t, "src-1", "PRS-1")
	if !r.ctrl.Flush(5 * time.Second) {
		t.Fatal("Flush timed out")
	}
	// The async callback POST may still be in flight after Flush returns;
	// poll the counter rather than racing it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(r.metrics(t), `css_deliveries_failed_total{reason="status"} 1`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("css_deliveries_failed_total never incremented:\n%s", r.metrics(t))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Each way a callback delivery fails adds one to its own reason: a
// subscriber that cannot be reached ("connect") and one that answers
// 500 ("status"). A callback URL that does not parse never gets this
// far: parseCallback refuses it at subscribe time.
func TestCallbackFailureReasons(t *testing.T) {
	ctrl, err := core.New(core.Config{MasterKey: bytes.Repeat([]byte{4}, crypto.KeySize)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	srv := NewServer(ctrl)
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer failing.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String() + "/cb"
	ln.Close()
	n := &event.Notification{ID: "EVT-000000000001", Class: schema.ClassBloodTest, Trace: "feedbeefcafe0001"}
	for _, tc := range []struct{ callback, reason string }{
		{refused, "connect"},
		{failing.URL + "/cb", "status"},
	} {
		u, err := parseCallback(tc.callback)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.deliveriesFailed.Value(tc.reason)
		srv.deliver(context.Background(), u, "family-doctor", event.XML, n)
		if got := srv.deliveriesFailed.Value(tc.reason) - before; got != 1 {
			t.Errorf("callback %q: reason %q counted %d times, want 1", tc.callback, tc.reason, got)
		}
	}
	var total uint64
	for _, reason := range []string{"connect", "status", "encode"} {
		total += srv.deliveriesFailed.Value(reason)
	}
	if total != 2 {
		t.Errorf("%d failures counted for 2 failed deliveries", total)
	}
}

func TestCallbackCarriesTraceHeaderAndAttr(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	var mu sync.Mutex
	var headerTrace string
	var got *event.Notification
	receiver := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		n, err := event.DecodeNotification(body)
		mu.Lock()
		headerTrace = req.Header.Get(telemetry.TraceHeader)
		if err == nil {
			got = n
		}
		mu.Unlock()
	}))
	defer receiver.Close()
	if _, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, receiver.URL); err != nil {
		t.Fatal(err)
	}
	r.produce(t, "src-1", "PRS-1")

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := got != nil
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got == nil {
		t.Fatal("callback never delivered")
	}
	if len(got.Trace) != 16 {
		t.Errorf("notification trace attr = %q, want 16 hex chars", got.Trace)
	}
	if headerTrace != got.Trace {
		t.Errorf("X-Trace-Id header = %q, notification trace = %q", headerTrace, got.Trace)
	}
}

func TestGatewayServerMetricsAndHealthz(t *testing.T) {
	r := newRig(t)
	resp, err := http.Get(r.gwServer.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway /healthz status = %d", resp.StatusCode)
	}
	r.produce(t, "src-1", "PRS-1")
	resp, err = http.Get(r.gwServer.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "css_gateway_http_requests_total") {
		t.Errorf("gateway /metrics missing http counters:\n%s", body)
	}
}
