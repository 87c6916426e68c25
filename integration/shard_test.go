package integration

// Multi-shard smoke (make shard-smoke, part of `make check`): a 3-shard
// controller cluster boots in one process, a shard-routing client
// publishes across the ring by redirect discovery, a person inquiry
// scatter-gathers the cluster — then a cold fourth shard joins via one
// live split and the cluster still answers with exactly-once placement
// and intact audit chains.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/transport"
)

// bootShard starts one sharded controller on a pre-bound listener.
func bootShard(t *testing.T, key []byte, id cluster.ShardID, m *cluster.Map, ln net.Listener) *core.Controller {
	t.Helper()
	c, err := core.New(core.Config{
		DefaultConsent: true, MasterKey: key,
		ShardID: id, ShardMap: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.RegisterProducer("hospital", "H"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterConsumer("family-doctor", "FD"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id"},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(transport.NewServer(c))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	t.Cleanup(srv.Close)
	return c
}

// TestShardSmoke is the cluster bring-up drill behind `make shard-smoke`.
func TestShardSmoke(t *testing.T) {
	if os.Getenv("SHARD_SMOKE") == "" {
		t.Skip("set SHARD_SMOKE=1 (or run `make shard-smoke`)")
	}
	const active, total = 3, 4
	key := bytes.Repeat([]byte{5}, crypto.KeySize)

	lns := make([]net.Listener, total)
	shards := make([]cluster.ShardInfo, total)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		shards[i] = cluster.ShardInfo{ID: cluster.ShardID(i), Addr: "http://" + ln.Addr().String()}
	}
	// The boot map names only the active shards; shard 3 boots cold
	// (owning nothing) and joins through the live split below.
	m, err := cluster.NewMap(1, 0, shards[:active])
	if err != nil {
		t.Fatal(err)
	}
	ctrls := make([]*core.Controller, total)
	for i := range ctrls {
		ctrls[i] = bootShard(t, key, cluster.ShardID(i), m, lns[i])
	}

	// No pseudonym function: the client discovers owners through
	// wrong-shard redirects, exactly like an external producer.
	sc, err := transport.NewShardedClient(m, func(info cluster.ShardInfo) *transport.Client {
		return transport.NewClient(info.Addr, nil, transport.WithCodec(event.Binary))
	})
	if err != nil {
		t.Fatal(err)
	}

	persons := make([]string, 30)
	base := time.Date(2024, 5, 1, 8, 0, 0, 0, time.UTC)
	for i := range persons {
		persons[i] = fmt.Sprintf("SMK-%03d", i)
		if _, err := sc.Publish(context.Background(), &event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("smoke-%03d", i)), Class: schema.ClassBloodTest,
			PersonID: persons[i], OccurredAt: base.Add(time.Duration(i) * time.Minute),
			Producer: "hospital",
		}); err != nil {
			t.Fatalf("publish %s: %v", persons[i], err)
		}
	}

	// Cross-shard placement: every event indexed exactly once, on the
	// shard the ring owns its pseudonym to.
	verifyPlacement := func(m *cluster.Map) {
		t.Helper()
		totalIndexed := 0
		for _, c := range ctrls {
			n, err := c.IndexLen()
			if err != nil {
				t.Fatal(err)
			}
			totalIndexed += n
		}
		if totalIndexed != len(persons) {
			t.Fatalf("cluster indexes %d events, want %d", totalIndexed, len(persons))
		}
		for _, p := range persons {
			owner := m.Owner(ctrls[0].Pseudonym(p))
			notes, err := ctrls[owner].InquireIndex("family-doctor", index.Inquiry{PersonID: p})
			if err != nil {
				t.Fatal(err)
			}
			if len(notes) != 1 {
				t.Fatalf("owner %s holds %d events for %s, want 1", owner, len(notes), p)
			}
		}
	}
	verifyPlacement(m)

	// Scatter-gather: a class-wide inquiry through the client must merge
	// all shards in stable order.
	notes, err := sc.InquireIndex(context.Background(), "family-doctor", index.Inquiry{Class: schema.ClassBloodTest})
	if err != nil {
		t.Fatalf("scatter inquiry: %v", err)
	}
	if len(notes) != len(persons) {
		t.Fatalf("scatter inquiry merged %d events, want %d", len(notes), len(persons))
	}
	for i := 1; i < len(notes); i++ {
		if notes[i].OccurredAt.Before(notes[i-1].OccurredAt) {
			t.Fatalf("merged order violated at %d", i)
		}
	}

	// Live split: the cold shard 3 joins. Donors freeze, ship moved
	// events, flip the map, sweep.
	next, err := m.WithShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(map[cluster.ShardID]cluster.Node, total)
	for _, c := range ctrls {
		id, _ := c.ShardID()
		nodes[id] = c
	}
	stats, err := cluster.Reshard(context.Background(), nodes, next)
	if err != nil {
		t.Fatalf("reshard: %v", err)
	}
	if stats.Moved == 0 {
		t.Fatal("split moved nothing onto the new shard's key range")
	}
	if stats.Swept != stats.Moved {
		t.Fatalf("swept %d != moved %d", stats.Swept, stats.Moved)
	}
	t.Logf("split moved=%d swept=%d", stats.Moved, stats.Swept)

	verifyPlacement(next)
	if n, err := ctrls[3].IndexLen(); err != nil || n == 0 {
		t.Fatalf("new shard holds %d events after the split (err %v)", n, err)
	}

	// The client refreshes to the flipped map and a post-split publish
	// lands on the new topology first try.
	if err := sc.RefreshMap(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := sc.Map().Version(); got != next.Version() {
		t.Fatalf("client map v%d, want v%d", got, next.Version())
	}
	if _, err := sc.Publish(context.Background(), &event.Notification{
		SourceID: "smoke-post-split", Class: schema.ClassBloodTest,
		PersonID: "SMK-POST", OccurredAt: base.Add(time.Hour), Producer: "hospital",
	}); err != nil {
		t.Fatalf("post-split publish: %v", err)
	}
	owner := next.Owner(ctrls[0].Pseudonym("SMK-POST"))
	got, err := ctrls[owner].InquireIndex("family-doctor", index.Inquiry{PersonID: "SMK-POST"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("post-split event not on owner %s", owner)
	}

	// Every shard's audit hash-chain must survive the handoff.
	for _, c := range ctrls {
		if err := c.Audit().Verify(); err != nil {
			id, _ := c.ShardID()
			t.Errorf("audit chain on shard %s broken: %v", id, err)
		}
	}
}
