package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// fleetHits counts the requests a relay's controllers receive, by
// path, and answers the first refuseMaps GET /ws/shardmap with 503, as
// an overloaded controller does.
type fleetHits struct {
	mu         sync.Mutex
	paths      map[string]int
	refuseMaps int
}

func (h *fleetHits) count(path string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.paths[path]
}

func (h *fleetHits) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		if h.paths == nil {
			h.paths = make(map[string]int)
		}
		h.paths[r.URL.Path]++
		refuse := r.URL.Path == "/ws/shardmap" && h.paths[r.URL.Path] <= h.refuseMaps
		h.mu.Unlock()
		if refuse {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// relayFleet boots n in-process controllers sharing one master key,
// each behind transport.NewServer on its own loopback server whose
// requests h counts; n > 1 makes them the shards of one version-1 map.
// It returns the controllers and their base URLs.
func relayFleet(t *testing.T, n int, h *fleetHits) ([]*core.Controller, []string) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	shards := make([]cluster.ShardInfo, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + servers[i].Listener.Addr().String()
		shards[i] = cluster.ShardInfo{ID: cluster.ShardID(i), Addr: urls[i]}
	}
	var m *cluster.Map
	if n > 1 {
		var err error
		if m, err = cluster.NewMap(1, 0, shards); err != nil {
			t.Fatal(err)
		}
	}
	ctrls := make([]*core.Controller, n)
	for i := range ctrls {
		ctrls[i] = relayController(t, core.Config{ShardMap: m, ShardID: cluster.ShardID(i)})
		servers[i].Config.Handler = h.wrap(transport.NewServer(ctrls[i]))
		servers[i].Start()
		t.Cleanup(servers[i].Close)
	}
	return ctrls, urls
}

// relayController boots a controller under cfg with the fleet's master
// key and the hospital's blood-test class declared.
func relayController(t *testing.T, cfg core.Config) *core.Controller {
	t.Helper()
	cfg.MasterKey, cfg.DefaultConsent = bytes.Repeat([]byte{5}, crypto.KeySize), true
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	return c
}

func relayNote(person string, i int) *event.Notification {
	return &event.Notification{
		SourceID: event.SourceID(fmt.Sprintf("src-%s-%d", person, i)), Class: schema.ClassBloodTest,
		PersonID: person, Summary: "blood test", Producer: "hospital",
		OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
	}
}

func testRelay(t *testing.T, controller string) *transport.ShardedClient {
	t.Helper()
	relay, err := newRelay(controller, event.XML, "", resilience.NewMetrics(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	return relay
}

func indexLen(t *testing.T, c *core.Controller) int {
	t.Helper()
	n, err := c.IndexLen()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// shardOnePerson returns a person whose publishes shard 1 of the
// fleet's map owns.
func shardOnePerson(ctrls []*core.Controller) string {
	m := ctrls[0].ShardMap()
	for i := 0; ; i++ {
		if p := fmt.Sprintf("PRS-%05d", i); m.Owner(ctrls[0].Pseudonym(p)) == 1 {
			return p
		}
	}
}

// TestRelayFollowsShardRedirect: a relay pointed at shard 0 of a
// 2-shard fleet delivers a publish for a person shard 1 owns to shard
// 1, learning the fleet's map from shard 0's redirect.
func TestRelayFollowsShardRedirect(t *testing.T) {
	ctrls, urls := relayFleet(t, 2, &fleetHits{})
	relay := testRelay(t, urls[0])
	if _, err := relay.Publish(context.Background(), relayNote(shardOnePerson(ctrls), 0)); err != nil {
		t.Fatal(err)
	}
	if n0, n1 := indexLen(t, ctrls[0]), indexLen(t, ctrls[1]); n0 != 0 || n1 != 1 {
		t.Errorf("index sizes after one publish for a shard-1 person: shard 0 %d, shard 1 %d; want 0 and 1", n0, n1)
	}
	if v, want := relay.Map().Version(), ctrls[0].ShardMap().Version(); v != want {
		t.Errorf("relay routes by map v%d after the redirect, want v%d", v, want)
	}
}

// TestRelayQueuesWhileMapUnreachable: when the fleet's map cannot be
// fetched after the first redirect (every retried attempt of it is
// answered 503), the relay cannot reach the shard the redirect names.
// The outbox keeps the publish queued, with no dead letter, and the
// drain delivers it to shard 1 once the map can be fetched.
func TestRelayQueuesWhileMapUnreachable(t *testing.T) {
	hits := &fleetHits{refuseMaps: resilience.DefaultMaxAttempts}
	ctrls, urls := relayFleet(t, 2, hits)
	qp, err := transport.NewQueuedPublisher(testRelay(t, urls[0]), store.OpenMemory(), nil, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(qp.Close)
	gid, queued, err := qp.Publish(context.Background(), relayNote(shardOnePerson(ctrls), 0))
	if err != nil || !queued {
		t.Fatalf("publish with the map unreachable: id %q, queued %v, err %v; want it queued", gid, queued, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := qp.DrainContext(ctx); err != nil {
		t.Fatal(err)
	}
	if d := qp.Dead(); d != 0 {
		t.Errorf("%d outbox entries dead-lettered", d)
	}
	if n0, n1 := indexLen(t, ctrls[0]), indexLen(t, ctrls[1]); n0 != 0 || n1 != 1 {
		t.Errorf("index sizes after the drain: shard 0 %d, shard 1 %d; want 0 and 1", n0, n1)
	}
	if n := hits.count("/ws/shardmap"); n <= hits.refuseMaps {
		t.Errorf("%d map fetches, want more than the %d refused", n, hits.refuseMaps)
	}
}

// TestRelayToLoneControllerNeverFetchesMap: a relay toward a lone
// controller publishes straight to it, and never asks it for a shard
// map.
func TestRelayToLoneControllerNeverFetchesMap(t *testing.T) {
	hits := &fleetHits{}
	ctrls, urls := relayFleet(t, 1, hits)
	relay := testRelay(t, urls[0])
	for i := 0; i < 20; i++ {
		if _, err := relay.Publish(context.Background(), relayNote(fmt.Sprintf("PRS-%05d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := indexLen(t, ctrls[0]); n != 20 {
		t.Errorf("lone controller indexed %d of 20 relayed publishes", n)
	}
	if n := hits.count("/ws/shardmap"); n != 0 {
		t.Errorf("the relay fetched /ws/shardmap %d times from a lone controller", n)
	}
}

// TestRelayStopsAtLoneReplica: a lone controller running as a replica
// answers a publish not-primary at map version 0. The relay has no
// newer map to learn and no other node to ask, so it returns the fault
// after one request.
func TestRelayStopsAtLoneReplica(t *testing.T) {
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

	_, err = testRelay(t, srv.URL).Publish(context.Background(), relayNote("PRS-00000", 0))
	var np *cluster.NotPrimaryError
	if !errors.As(err, &np) {
		t.Fatalf("publish to a lone replica: %v, want a not-primary fault", err)
	}
	if n := hits.count("/ws/publish"); n != 1 {
		t.Errorf("the relay sent %d publishes to a lone replica, want 1", n)
	}
	if n := hits.count("/ws/shardmap"); n != 0 {
		t.Errorf("the relay fetched /ws/shardmap %d times from a lone replica", n)
	}
}
