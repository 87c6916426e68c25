package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/transport"
)

// parkedRelay opens a relay's outbox toward controller over a store
// that already holds notes, parked by an earlier run of the gateway,
// so its drains start from them.
func parkedRelay(t *testing.T, controller string, notes ...*event.Notification) *transport.QueuedPublisher {
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
	qp, err := transport.NewQueuedPublisher(testRelay(t, controller), st, nil, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(qp.Close)
	return qp
}

// TestRelayDrainKeepsWhatDidNotLand: the relay's outbox drain
// dead-letters only what a controller refuses.
//
// A lone replica answers every publish not-primary at map version 0, a
// routing fault that no newer map can steer. The parked entry stays
// queued across drains, and a direct relay publish to the replica is
// queued as well.
//
// A lone primary refuses an entry of a class it does not know. That
// entry is dead-lettered, and the entry parked behind it drains.
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

		qp := parkedRelay(t, srv.URL, relayNote("PRS-00000", 0))
		deadline := time.Now().Add(5 * time.Second)
		for hits.count("/ws/publish") < 2 && qp.Dead() == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if depth, dead := qp.Depth(), qp.Dead(); depth != 1 || dead != 0 {
			t.Fatalf("outbox depth %d, dead %d after drains met not-primary; want 1 and 0", depth, dead)
		}
		if n := hits.count("/ws/publish"); n < 2 {
			t.Fatalf("%d drain attempts, want at least two", n)
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
		qp := parkedRelay(t, urls[0], poisoned, relayNote("PRS-00001", 1))
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
	})
}
