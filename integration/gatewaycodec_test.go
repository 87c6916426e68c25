package integration

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestControllerAsksGatewayInItsCodec: a css-controller started with
// -codec binary asks its remote gateway for details in binary frames —
// the Accept header of every /gw/get-response names the frame type — and
// still answers its XML consumer.
func TestControllerAsksGatewayInItsCodec(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const producer = "hospital-s-maria"
	gw, err := gateway.New(producer, store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Persist(event.NewDetail(schema.ClassBloodTest, "codec-src-1", producer).
		Set("patient-id", "PRS-CODEC").Set("hemoglobin", "13.1")); err != nil {
		t.Fatal(err)
	}
	gs := transport.NewGatewayServer(gw, telemetry.NewRegistry())
	var mu sync.Mutex
	var accepts []string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/gw/get-response" {
			mu.Lock()
			accepts = append(accepts, r.Header.Get("Accept"))
			mu.Unlock()
		}
		gs.ServeHTTP(w, r)
	}))
	defer stub.Close()

	addr := freePort(t)
	url := "http://" + addr
	startProcess(t, "css-controller", "-addr", addr, "-codec", "binary", "-scenario",
		"-gateway", producer+"="+stub.URL)
	waitReady(t, url)

	client := transport.NewClient(url, nil)
	ctx := context.Background()
	gid, err := client.Publish(ctx, &event.Notification{
		SourceID: "codec-src-1", Class: schema.ClassBloodTest, PersonID: "PRS-CODEC",
		Summary: "blood test", OccurredAt: time.Date(2010, 6, 1, 9, 0, 0, 0, time.UTC),
		Producer: producer,
	})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	d, err := client.RequestDetails(ctx, &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest, EventID: gid,
		Purpose: event.PurposeHealthcareTreatment,
	})
	if err != nil {
		t.Fatalf("details: %v", err)
	}
	if v, _ := d.Get("hemoglobin"); v != "13.1" {
		t.Errorf("hemoglobin = %q, want 13.1", v)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(accepts) == 0 {
		t.Fatal("the controller never asked its gateway for the detail")
	}
	for _, a := range accepts {
		if a != event.Binary.ContentType() {
			t.Errorf("get-response Accept = %q, want %q", a, event.Binary.ContentType())
		}
	}
}
