package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestStoresOpenWithoutSync pins what ships: the gateway opens its
// store and its relay outbox with the zero store.Options, so a write
// returns before any fsync (README "Crash safety"). Opening them with
// SyncEvery fails it.
func TestStoresOpenWithoutSync(t *testing.T) {
	dir := t.TempDir()
	for _, file := range []string{"gateway.wal", "outbox.wal"} {
		st, err := openStore(dir, file)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if synced, end := st.WALSynced(), st.WALOffset(); synced >= end {
			t.Errorf("%s: fsynced through %d of %d bytes after a write; README says no daemon fsyncs", file, synced, end)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGetResponseObjectiveCountsServedRetrievals: the gw-get-response
// objective reads the get-response server span the gateway's tracer
// times, so one served retrieval is one observation of it.
func TestGetResponseObjectiveCountsServedRetrievals(t *testing.T) {
	reg := telemetry.NewRegistry()
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Persist(event.NewDetail(schema.ClassBloodTest, "lab-1", "hospital").Set("hemoglobin", "13.1")); err != nil {
		t.Fatal(err)
	}
	srv := transport.NewGatewayServer(gw, reg)
	slo := gatewaySLO(reg)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/gw/get-response", strings.NewReader(
		`<getResponseRequest><sourceId>lab-1</sourceId><fields><field>hemoglobin</field></fields></getResponseRequest>`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("get-response = %d: %s", rec.Code, rec.Body.String())
	}
	rep := slo.Report()
	if len(rep) != 1 || rep[0].Name != "gw-get-response" || rep[0].Total != 1 {
		t.Fatalf("objectives %+v, want gw-get-response over one retrieval", rep)
	}
}
