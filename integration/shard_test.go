package integration

// Multi-shard smoke (make shard-smoke, part of `make check`): a 3-shard
// controller cluster boots in one process, a shard-routing client
// publishes across the shards by redirect discovery with exactly-once
// placement, a class inquiry scatter-gathers the cluster, and an
// opt-out recorded through the client binds on every shard: the
// person's events reach neither a class subscriber nor an inquiry.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/testsupport"
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
	srv := transport.NewHTTPServer(transport.NewServer(c))
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return c
}

// TestShardSmoke is the cluster bring-up drill behind `make shard-smoke`.
func TestShardSmoke(t *testing.T) {
	if os.Getenv("SHARD_SMOKE") == "" {
		t.Skip("set SHARD_SMOKE=1 (or run `make shard-smoke`)")
	}
	const shardCount = 3
	key := bytes.Repeat([]byte{5}, crypto.KeySize)
	ctx := context.Background()

	lns := make([]net.Listener, shardCount)
	shards := make([]cluster.ShardInfo, shardCount)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		shards[i] = cluster.ShardInfo{ID: cluster.ShardID(i), Addr: "http://" + ln.Addr().String()}
	}
	m, err := cluster.NewMap(1, 0, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctrls := make([]*core.Controller, shardCount)
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

	base := time.Date(2024, 5, 1, 8, 0, 0, 0, time.UTC)
	publish := func(person, source string, at time.Duration) event.GlobalID {
		t.Helper()
		gid, err := sc.Publish(ctx, &event.Notification{
			SourceID: event.SourceID(source), Class: schema.ClassBloodTest,
			PersonID: person, OccurredAt: base.Add(at), Producer: "hospital",
		})
		if err != nil {
			t.Fatalf("publish %s: %v", source, err)
		}
		return gid
	}
	indexTotal := func() int {
		t.Helper()
		total := 0
		for _, c := range ctrls {
			n, err := testsupport.Indexed(c.Audit())
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
		return total
	}

	persons := make([]string, 30)
	for i := range persons {
		persons[i] = fmt.Sprintf("SMK-%03d", i)
		publish(persons[i], fmt.Sprintf("smoke-%03d", i), time.Duration(i)*time.Minute)
	}

	// Cross-shard placement: every event indexed exactly once, on the
	// shard the map owns its pseudonym to.
	if got := indexTotal(); got != len(persons) {
		t.Fatalf("cluster indexes %d events, want %d", got, len(persons))
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

	// Scatter-gather: a class-wide inquiry through the client must merge
	// all shards in stable order.
	notes, err := sc.InquireIndex(ctx, "family-doctor", index.Inquiry{Class: schema.ClassBloodTest})
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

	// Consent across the fleet: a class subscriber and an opt-out, both
	// recorded through the client, then a second round of publishes for
	// every person plus the opted-out one.
	var mu sync.Mutex
	delivered := map[event.GlobalID]bool{}
	recv := httptest.NewServer(transport.NewNotificationReceiver(func(n *event.Notification) {
		mu.Lock()
		delivered[n.ID] = true
		mu.Unlock()
	}))
	t.Cleanup(recv.Close)
	if _, err := sc.Subscribe(ctx, "family-doctor", schema.ClassBloodTest, recv.URL); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	const optedOut = "SMK-OUT"
	if _, err := sc.RecordConsent(ctx, consent.Directive{PersonID: optedOut, Allow: false}); err != nil {
		t.Fatalf("record consent: %v", err)
	}
	want := map[event.GlobalID]bool{}
	hidden := map[event.GlobalID]bool{}
	for i, p := range persons {
		want[publish(p, fmt.Sprintf("smoke-2-%03d", i), time.Hour+time.Duration(i)*time.Minute)] = true
		if i%10 == 0 {
			hidden[publish(optedOut, fmt.Sprintf("smoke-out-%03d", i), time.Hour+time.Duration(i)*time.Minute)] = true
		}
	}
	if got := indexTotal(); got != 2*len(persons)+len(hidden) {
		t.Fatalf("cluster indexes %d events, want %d", got, 2*len(persons)+len(hidden))
	}

	// Each opted-out publish is dropped once, on its owner; wait for
	// those drops and every other delivery before reading the receiver.
	consentDrops := func() uint64 {
		var n uint64
		for _, c := range ctrls {
			n += testsupport.CounterValue(c.Metrics(), "css_consent_drops_total", "consent")
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got := len(delivered)
		mu.Unlock()
		if got >= len(want) && consentDrops() >= uint64(len(hidden)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %d of %d notifications delivered, %d of %d consent drops",
				got, len(want), consentDrops(), len(hidden))
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	for gid := range want {
		if !delivered[gid] {
			t.Errorf("notification %s never delivered", gid)
		}
	}
	for gid := range delivered {
		if hidden[gid] {
			t.Errorf("opted-out person's notification %s reached the subscriber", gid)
		} else if !want[gid] {
			t.Errorf("unexpected notification %s delivered", gid)
		}
	}
	mu.Unlock()
	if got := consentDrops(); got != uint64(len(hidden)) {
		t.Errorf("consent drops = %d, want %d", got, len(hidden))
	}

	// Inquiries through the client see none of the opted-out person's
	// events: the person inquiry is empty, the class inquiry holds
	// every other person's events and none of hers.
	if got, err := sc.InquireIndex(ctx, "family-doctor", index.Inquiry{PersonID: optedOut}); err != nil || len(got) != 0 {
		t.Errorf("person inquiry for %s = %d events, %v; want none", optedOut, len(got), err)
	}
	notes, err = sc.InquireIndex(ctx, "family-doctor", index.Inquiry{Class: schema.ClassBloodTest})
	if err != nil {
		t.Fatalf("class inquiry: %v", err)
	}
	if len(notes) != 2*len(persons) {
		t.Errorf("class inquiry merged %d events, want %d", len(notes), 2*len(persons))
	}
	for _, n := range notes {
		if hidden[n.ID] {
			t.Errorf("class inquiry returned the opted-out person's event %s", n.ID)
		}
	}

	// Every shard's audit hash-chain must verify.
	for _, c := range ctrls {
		if err := c.Audit().Verify(); err != nil {
			id := c.ShardID()
			t.Errorf("audit chain on shard %s broken: %v", id, err)
		}
	}
}

// TestControllerRejectsShardIDOutsideTopology: css-controller with a
// -shard-id its topology leaves out exits at boot instead of serving a
// shard that owns no keys, and says which id it refused.
func TestControllerRejectsShardIDOutsideTopology(t *testing.T) {
	cmd := exec.Command(bin("css-controller"), "-addr", freePort(t), "-shard-id", "3",
		"-peers", "u0,u1,u2", "-key-file", filepath.Join(t.TempDir(), "k"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	done := make(chan error, 1)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("css-controller exited 0")
		}
		if !strings.Contains(stderr.String(), "shard id 3") {
			t.Errorf("stderr does not name shard id 3:\n%s", stderr.String())
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("css-controller still running after 10s\n%s", stderr.String())
	}
}
