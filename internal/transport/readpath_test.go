package transport

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// Two identical permitted detail requests in flight at once are two
// disclosures: each reaches the producer's gateway as its own
// get-response call, under its own trace. The gateway holds the first
// fetch until the second arrives (or two seconds pass), so a client
// that coalesced the pair would show one call here.
func TestIdenticalDetailRequestsFetchSeparately(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	gid := r.produce(t, "src-1", "PRS-1")

	var mu sync.Mutex
	var traces []string
	second := make(chan struct{})
	gs := testGatewayServer(r.gw)
	gated := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/gw/get-response" {
			mu.Lock()
			traces = append(traces, req.Header.Get(telemetry.TraceHeader))
			n := len(traces)
			mu.Unlock()
			switch n {
			case 1:
				select {
				case <-second:
				case <-time.After(2 * time.Second):
				}
			case 2:
				close(second)
			}
		}
		gs.ServeHTTP(w, req)
	}))
	t.Cleanup(gated.Close)
	if err := r.ctrl.AttachGateway("hospital", NewRemoteGateway(gated.URL, nil)); err != nil {
		t.Fatal(err)
	}

	want := []string{"feedbeefcafe0001", "feedbeefcafe0002"}
	var wg sync.WaitGroup
	for _, trace := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := r.ctrl.RequestDetailsContext(context.Background(), &event.DetailRequest{
				Requester: "family-doctor", Class: schema.ClassBloodTest, EventID: gid,
				Purpose: event.PurposeHealthcareTreatment, Trace: trace,
			})
			if err != nil {
				t.Errorf("request %s: %v", trace, err)
				return
			}
			if v, _ := d.Get("hemoglobin"); v != "14.2" {
				t.Errorf("request %s: detail %+v", trace, d)
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	got := append([]string(nil), traces...)
	sort.Strings(got)
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("gateway saw get-response calls with traces %q, want one per request: %q", got, want)
	}
}
