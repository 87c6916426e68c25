package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/testsupport"
	"repro/internal/transport"
)

// parkedRelay opens a relay's outbox toward controller over a store
// that already holds notes, parked by an earlier run of the gateway,
// so its drains start from them. The outbox counts its operations into
// reg.
func parkedRelay(t *testing.T, reg *telemetry.Registry, controller string, notes ...*event.Notification) *transport.QueuedPublisher {
	t.Helper()
	st := store.OpenMemory()
	ob, err := resilience.OpenOutbox(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range notes {
		if _, err := ob.Enqueue(n); err != nil {
			t.Fatal(err)
		}
	}
	qp, err := transport.NewQueuedPublisher(testRelay(t, controller), st, resilience.NewMetrics(reg), 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(qp.Close)
	return qp
}

// keptRounds reads the outbox's kept rounds by op ("kept",
// "kept_routing").
func keptRounds(reg *telemetry.Registry, op string) uint64 {
	return testsupport.CounterValue(reg, "css_resilience_outbox_ops_total", op)
}

// TestRelayDrainKeepsWhatDidNotLand: the relay's outbox drain
// dead-letters only what a controller refuses, and counts and names why
// it kept the rest.
//
// A lone replica answers every publish not-primary at map version 0, a
// routing fault that no newer map can steer. The parked entry stays
// queued across drains, each round counted kept_routing and the relay's
// last kept reason "routing", and a direct relay publish to the replica
// is queued as well.
//
// A lone primary refuses an entry of a class it does not know. That
// entry is dead-lettered, the entry parked behind it drains, and no
// round is counted kept.
//
// Toward a closed address the entry stays queued, counted kept and
// named "unreachable".
func TestRelayDrainKeepsWhatDidNotLand(t *testing.T) {
	t.Run("not-primary", func(t *testing.T) {
		dir := t.TempDir()
		c := relayController(t, core.Config{DataDir: dir})
		stores, err := c.ReplStores()
		if err != nil {
			t.Fatal(err)
		}
		node, err := replication.NewNode(replication.NodeConfig{Role: replication.RoleReplica, DataDir: dir,
			Stores: stores, Listen: "127.0.0.1:0", Promote: c.Promote, OnApply: c.OnReplicatedApply})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		c.AttachReplication(node)
		hits := &fleetHits{}
		srv := httptest.NewServer(hits.wrap(transport.NewServer(c)))
		t.Cleanup(srv.Close)

		reg := telemetry.NewRegistry()
		qp := parkedRelay(t, reg, srv.URL, relayNote("PRS-00000", 0))
		deadline := time.Now().Add(5 * time.Second)
		for keptRounds(reg, "kept_routing") < 2 && qp.Dead() == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if depth, dead := qp.Depth(), qp.Dead(); depth != 1 || dead != 0 {
			t.Fatalf("outbox depth %d, dead %d after drains met not-primary; want 1 and 0", depth, dead)
		}
		if n := hits.count("/ws/publish"); n < 2 {
			t.Fatalf("%d drain attempts, want at least two", n)
		}
		if routing, other := keptRounds(reg, "kept_routing"), keptRounds(reg, "kept"); routing < 2 || other != 0 {
			t.Fatalf("kept rounds: %d kept_routing, %d kept; want at least two and none", routing, other)
		}
		if why := qp.LastKept(); why != "routing" {
			t.Fatalf("last kept %q, want routing", why)
		}
		gw, err := gateway.New("hospital", store.OpenMemory(), nil)
		if err != nil {
			t.Fatal(err)
		}
		gwSrv := transport.NewGatewayServer(gw, reg)
		gwSrv.EnablePublishRelay(qp)
		probe := httptest.NewRecorder()
		gwSrv.ServeHTTP(probe, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if body := probe.Body.String(); !strings.Contains(body, "outbox_last_kept: routing\n") {
			t.Fatalf("relay /healthz does not name the routing hold:\n%s", body)
		}
		gid, queued, err := qp.Publish(context.Background(), relayNote("PRS-00001", 1))
		if err != nil || !queued {
			t.Fatalf("relay publish to a lone replica: id %q, queued %v, err %v; want it queued", gid, queued, err)
		}
	})
	t.Run("refused", func(t *testing.T) {
		ctrls, urls := relayFleet(t, 1, &fleetHits{})
		poisoned := relayNote("PRS-00000", 0)
		poisoned.Class = "hospital.no-such-class"
		reg := telemetry.NewRegistry()
		qp := parkedRelay(t, reg, urls[0], poisoned, relayNote("PRS-00001", 1))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := qp.DrainContext(ctx); err != nil {
			t.Fatal(err)
		}
		if dead := qp.Dead(); dead != 1 {
			t.Errorf("%d entries dead-lettered, want the refused one", dead)
		}
		if n := indexLen(t, ctrls[0]); n != 1 {
			t.Errorf("the controller indexed %d entries, want the one behind the refused entry", n)
		}
		if routing, other := keptRounds(reg, "kept_routing"), keptRounds(reg, "kept"); routing != 0 || other != 0 {
			t.Errorf("kept rounds: %d kept_routing, %d kept; want none", routing, other)
		}
		if why := qp.LastKept(); why != "" {
			t.Errorf("last kept %q after the outbox drained, want empty", why)
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		closed := httptest.NewServer(nil)
		closed.Close()
		reg := telemetry.NewRegistry()
		qp := parkedRelay(t, reg, closed.URL, relayNote("PRS-00000", 0))
		deadline := time.Now().Add(5 * time.Second)
		for keptRounds(reg, "kept") < 2 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if depth, dead := qp.Depth(), qp.Dead(); depth != 1 || dead != 0 {
			t.Fatalf("outbox depth %d, dead %d after drains met a closed address; want 1 and 0", depth, dead)
		}
		if other, routing := keptRounds(reg, "kept"), keptRounds(reg, "kept_routing"); other < 2 || routing != 0 {
			t.Fatalf("kept rounds: %d kept, %d kept_routing; want at least two and none", other, routing)
		}
		if why := qp.LastKept(); why != "unreachable" {
			t.Fatalf("last kept %q, want unreachable", why)
		}
	})
}
