package transport

// Transport-layer replication tests: the not-primary fault round-trip,
// the sharded client's failover refresh (one map fetch, no redirect
// loop), a replica's inquiry refusal, and the replication-status /
// promote endpoints over the wire.

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/replication"
	"repro/internal/schema"
)

// startNode starts ctrl's replication node — the wiring css-controller
// does from its flags — attaches it, and closes it with the test. cfg
// carries the role, the controller's data dir and whatever the test
// varies; a replica listens on an ephemeral port unless cfg names one.
func startNode(t *testing.T, ctrl *core.Controller, cfg replication.NodeConfig) *replication.Node {
	t.Helper()
	stores, err := ctrl.ReplStores()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stores, cfg.Promote, cfg.OnApply = stores, ctrl.Promote, ctrl.OnReplicatedApply
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	n, err := replication.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ctrl.AttachReplication(n)
	return n
}

// waitSameWALs blocks until every store of behind is as long as its
// counterpart in ahead.
func waitSameWALs(t *testing.T, ahead, behind *core.Controller) {
	t.Helper()
	as, err := ahead.ReplStores()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := behind.ReplStores()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		caught := true
		for i, ns := range as {
			if bs[i].Store.WALOffset() != ns.Store.WALOffset() {
				caught = false
				break
			}
		}
		if caught {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNotPrimaryFaultRoundTrip(t *testing.T) {
	orig := &cluster.NotPrimaryError{Shard: 3, Version: 7}
	f, status := faultOf(orig)
	if status != http.StatusMisdirectedRequest {
		t.Fatalf("not-primary status = %d, want 421", status)
	}
	if f.Code != CodeNotPrimary || f.Shard != "3" || f.MapVersion != 7 {
		t.Fatalf("fault = %+v", f)
	}
	back := errorFor(f)
	if !errors.Is(back, cluster.ErrNotPrimary) {
		t.Fatalf("reconstructed error %v is not ErrNotPrimary", back)
	}
	var np *cluster.NotPrimaryError
	if !errors.As(back, &np) || np.Shard != 3 || np.Version != 7 {
		t.Fatalf("reconstructed redirect = %+v", np)
	}
}

// TestShardedClientFailoverRefresh drives the stale-client side of a
// failover: the client's map still names the deposed primary, which now
// runs as a replica and holds the successor map. One write produces one
// not-primary fault, one map refresh, and a successful retry at the
// promoted node — no redirect loop. An inquiry from a second stale
// client follows the same redirect.
func TestShardedClientFailoverRefresh(t *testing.T) {
	key := bytes.Repeat([]byte{7}, crypto.KeySize)

	// Bind both listeners first so the maps can name real addresses.
	deposedSrv := newUnstartedTestServer(t)
	promotedSrv := newUnstartedTestServer(t)
	deposedURL := deposedSrv.URL
	promotedURL := promotedSrv.URL

	v1, err := cluster.NewMap(1, 0, []cluster.ShardInfo{
		{ID: 0, Addr: deposedURL, Replicas: []string{promotedURL}, Epoch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := v1.WithPromotedReplica(0, promotedURL)
	if err != nil {
		t.Fatal(err)
	}

	// The deposed node: replica role, already holding the successor map.
	deposedDir := t.TempDir()
	deposed, err := core.New(core.Config{
		DataDir: deposedDir, MasterKey: key, DefaultConsent: true,
		ShardID: 0, ShardMap: v2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { deposed.Close() })
	startNode(t, deposed, replication.NodeConfig{Role: replication.RoleReplica, DataDir: deposedDir})
	deposedSrv.Start(NewServer(deposed))
	t.Cleanup(deposedSrv.Close)

	// The promoted node: primary role under the successor map.
	promoted, err := core.New(core.Config{
		MasterKey: key, DefaultConsent: true, ShardID: 0, ShardMap: v2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { promoted.Close() })
	if err := promoted.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := promoted.RegisterConsumer("family-doctor", "Doctors"); err != nil {
		t.Fatal(err)
	}
	if err := promoted.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	promotedSrv.Start(NewServer(promoted))
	t.Cleanup(promotedSrv.Close)

	var dials atomic.Int32
	sc, err := NewShardedClient(v1, func(info cluster.ShardInfo) *Client {
		dials.Add(1)
		return NewClient(info.Addr, nil)
	})
	if err != nil {
		t.Fatal(err)
	}

	gid, err := sc.Publish(context.Background(), &event.Notification{
		Producer: "hospital", SourceID: "src-fo-1", Class: schema.ClassBloodTest,
		PersonID: "person-1", OccurredAt: time.Now(),
	})
	if err != nil {
		t.Fatalf("publish across failover: %v", err)
	}
	if gid == "" {
		t.Fatal("empty global id")
	}
	if v := sc.Map().Version(); v != 2 {
		t.Fatalf("client map version = %d, want 2 (refreshed from the deposed node)", v)
	}
	n, err := promoted.IndexLen()
	if err != nil || n != 1 {
		t.Fatalf("promoted node holds %d events (%v), want 1", n, err)
	}
	// One client per address touched: the deposed primary and its
	// replacement. A redirect loop would keep hammering the same pair,
	// so also prove the second publish goes straight to the primary.
	if d := dials.Load(); d != 2 {
		t.Fatalf("built %d clients, want 2", d)
	}
	if _, err := sc.Publish(context.Background(), &event.Notification{
		Producer: "hospital", SourceID: "src-fo-2", Class: schema.ClassBloodTest,
		PersonID: "person-1", OccurredAt: time.Now(),
	}); err != nil {
		t.Fatalf("post-refresh publish: %v", err)
	}
	if n, _ := promoted.IndexLen(); n != 2 {
		t.Fatalf("promoted node holds %d events, want 2", n)
	}

	// A read follows the same redirect: a client still on v1 sends its
	// inquiry to the deposed node, which refuses it, and the retry at
	// the promoted primary answers.
	if _, err := promoted.DefinePolicy(doctorBloodPolicy()); err != nil {
		t.Fatal(err)
	}
	reader, err := NewShardedClient(v1, func(info cluster.ShardInfo) *Client {
		return NewClient(info.Addr, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	notes, err := reader.InquireIndex(context.Background(), "family-doctor", index.Inquiry{Class: schema.ClassBloodTest})
	if err != nil || len(notes) != 2 {
		t.Fatalf("inquiry across failover = %d events, %v; want 2", len(notes), err)
	}
	if v := reader.Map().Version(); v != 2 {
		t.Fatalf("reader map version = %d, want 2", v)
	}
}

// TestShardedClientStaleReplicaRescue drives the other stale-client
// failover shape: the node the map names as primary answers
// not-primary, but with a map no newer than the client's own (a deposed
// primary restarted as a replica before learning its successor). The
// fault's version can teach the client nothing, so the rescue must come
// from the shard's replicas — one of which holds the successor
// map — instead of retrying the same stale address until the redirect
// budget dies.
func TestShardedClientStaleReplicaRescue(t *testing.T) {
	key := bytes.Repeat([]byte{7}, crypto.KeySize)

	deposedSrv := newUnstartedTestServer(t)
	promotedSrv := newUnstartedTestServer(t)
	deposedURL := deposedSrv.URL
	promotedURL := promotedSrv.URL

	v1, err := cluster.NewMap(1, 0, []cluster.ShardInfo{
		{ID: 0, Addr: deposedURL, Replicas: []string{promotedURL}, Epoch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := v1.WithPromotedReplica(0, promotedURL)
	if err != nil {
		t.Fatal(err)
	}

	// The deposed node rejoined as a replica still holding the OLD map:
	// its not-primary faults carry version 1, same as the client's.
	deposedDir := t.TempDir()
	deposed, err := core.New(core.Config{
		DataDir: deposedDir, MasterKey: key, DefaultConsent: true,
		ShardID: 0, ShardMap: v1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { deposed.Close() })
	startNode(t, deposed, replication.NodeConfig{Role: replication.RoleReplica, DataDir: deposedDir})
	deposedSrv.Start(NewServer(deposed))
	t.Cleanup(deposedSrv.Close)

	// The promoted node holds the successor map naming itself.
	promoted, err := core.New(core.Config{
		MasterKey: key, DefaultConsent: true, ShardID: 0, ShardMap: v2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { promoted.Close() })
	if err := promoted.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := promoted.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	promotedSrv.Start(NewServer(promoted))
	t.Cleanup(promotedSrv.Close)

	sc, err := NewShardedClient(v1, func(info cluster.ShardInfo) *Client {
		return NewClient(info.Addr, nil)
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sc.Publish(context.Background(), &event.Notification{
		Producer: "hospital", SourceID: "src-stale-1", Class: schema.ClassBloodTest,
		PersonID: "person-1", OccurredAt: time.Now(),
	}); err != nil {
		t.Fatalf("publish across stale-replica failover: %v", err)
	}
	if v := sc.Map().Version(); v != 2 {
		t.Fatalf("client map version = %d, want 2 (rescued from the replica)", v)
	}
	if n, err := promoted.IndexLen(); err != nil || n != 1 {
		t.Fatalf("promoted node holds %d events (%v), want 1", n, err)
	}
}

// replicatedPair wires a primary and a replica controller over a real
// replication link, each behind an HTTP server.
type replicatedPair struct {
	primary, replica *core.Controller
	priSrv, repSrv   *testServer
	priNode, repNode *replication.Node
}

func newReplicatedPair(t *testing.T) *replicatedPair {
	t.Helper()
	key := bytes.Repeat([]byte{7}, crypto.KeySize)
	rp := &replicatedPair{}

	priDir, repDir := t.TempDir(), t.TempDir()
	primary, err := core.New(core.Config{DataDir: priDir, MasterKey: key, DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	replica, err := core.New(core.Config{DataDir: repDir, MasterKey: key, DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	rp.primary, rp.replica = primary, replica
	rp.repNode = startNode(t, replica, replication.NodeConfig{Role: replication.RoleReplica, DataDir: repDir})
	rp.priNode = startNode(t, primary, replication.NodeConfig{
		Role: replication.RolePrimary, DataDir: priDir, Peers: []string{rp.repNode.Addr()},
	})

	if err := primary.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := primary.RegisterConsumer("family-doctor", "Doctors"); err != nil {
		t.Fatal(err)
	}
	if err := primary.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.DefinePolicy(doctorBloodPolicy()); err != nil {
		t.Fatal(err)
	}

	rp.priSrv = newTestServer(t, NewServer(primary).SetNode(rp.priNode))
	t.Cleanup(rp.priSrv.Close)
	rp.repSrv = newTestServer(t, NewServer(replica).SetNode(rp.repNode))
	t.Cleanup(rp.repSrv.Close)
	return rp
}

// TestReplicaRefusesInquiryOverTheWire pins the standby rule at the
// wire: POST /ws/inquire to a sharded replica answers 421 with the
// not-primary fault naming its shard and map version, and the
// replica's audit chain does not grow.
func TestReplicaRefusesInquiryOverTheWire(t *testing.T) {
	key := bytes.Repeat([]byte{7}, crypto.KeySize)
	m, err := cluster.NewMap(1, 0, []cluster.ShardInfo{
		{ID: 0, Addr: "http://127.0.0.1:1"}, {ID: 1, Addr: "http://127.0.0.1:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	replica, err := core.New(core.Config{
		DataDir: dir, MasterKey: key, DefaultConsent: true, ShardID: 1, ShardMap: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	startNode(t, replica, replication.NodeConfig{Role: replication.RoleReplica, DataDir: dir})
	srv := newTestServer(t, NewServer(replica))
	t.Cleanup(srv.Close)

	req := &inquiryRequest{Actor: "family-doctor", Class: schema.ClassBloodTest}
	resp, err := http.Post(srv.URL+"/ws/inquire", event.ContentTypeXML, bytes.NewReader(req.appendXML(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("replica inquiry answered %d, want 421: %s", resp.StatusCode, body)
	}
	var f Fault
	if err := xml.Unmarshal(body, &f); err != nil {
		t.Fatal(err)
	}
	if f.Code != CodeNotPrimary || f.Shard != "1" || f.MapVersion != 1 {
		t.Fatalf("fault = %+v, want not-primary naming shard 1 at map v1", f)
	}
	if n := replica.Audit().Len(); n != 0 {
		t.Fatalf("replica audit chain holds %d records after a refusal, want 0", n)
	}
}

func TestReplStatusAndPromoteOverTheWire(t *testing.T) {
	rp := newReplicatedPair(t)
	publishOne := func(c *Client, src string) (event.GlobalID, error) {
		return c.Publish(context.Background(), &event.Notification{
			Producer: "hospital", SourceID: event.SourceID(src),
			Class: schema.ClassBloodTest, PersonID: "person-1", OccurredAt: time.Now(),
		})
	}
	priClient := NewClient(rp.priSrv.URL, nil)
	repClient := NewClient(rp.repSrv.URL, nil)
	if _, err := publishOne(priClient, "src-a"); err != nil {
		t.Fatal(err)
	}
	waitSameWALs(t, rp.primary, rp.replica)

	// waitSameWALs tracks the follower's applied offsets; the ack that
	// drives the primary's lag gauge can trail the apply by a beat, so
	// poll the status surface rather than asserting zero lag once.
	var st ReplStatus
	var err error
	lagDeadline := time.Now().Add(5 * time.Second)
	for {
		st, err = priClient.ReplStatus(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Role != "primary" || st.Epoch != 1 || len(st.Followers) != 1 {
			t.Fatalf("primary replstatus = %+v", st)
		}
		if st.Followers[0].Connected && st.Followers[0].LagBytes == 0 {
			break
		}
		if time.Now().After(lagDeadline) {
			t.Fatalf("follower state = %+v, want connected with zero lag", st.Followers[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err = repClient.ReplStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "replica" {
		t.Fatalf("replica replstatus role = %q", st.Role)
	}

	// Writes bounce off the replica with the typed redirect.
	if _, err := publishOne(repClient, "src-b"); !errors.Is(err, cluster.ErrNotPrimary) {
		t.Fatalf("replica publish = %v, want ErrNotPrimary", err)
	}

	// Failover: stop shipping, promote over the wire, write to the
	// promoted node.
	rp.priNode.Close()
	st, err = repClient.Promote(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || st.Epoch != 2 {
		t.Fatalf("promote answered %+v", st)
	}
	if _, err := publishOne(repClient, "src-c"); err != nil {
		t.Fatalf("publish on promoted node: %v", err)
	}
	// A second promote conflicts instead of looping the role.
	if _, err := repClient.Promote(context.Background(), 3); err == nil {
		t.Fatal("second promote succeeded")
	}
}

// TestFollowerCatchesUpPreloadedPrimary boots a fleet shard the way the
// benchmark harness does: the primary's dir is written in process
// through core.Publish, the replica starts first on an empty dir, then
// the primary opens the written dir and ships to it. The replica must
// catch up on the whole history, which spans several shipped segments
// and write buffers (the index WAL alone is about 1 MB).
func TestFollowerCatchesUpPreloadedPrimary(t *testing.T) {
	key := bytes.Repeat([]byte{7}, crypto.KeySize)
	m, err := cluster.NewMap(1, 0, []cluster.ShardInfo{{ID: 0, Addr: "http://s0"}, {ID: 1, Addr: "http://s1"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(dir string) core.Config {
		return core.Config{DataDir: dir, MasterKey: key, DefaultConsent: true, ShardMap: m, ShardID: 0, SpanSampleRate: -1}
	}
	priDir, repDir := t.TempDir(), t.TempDir()
	pre, err := core.New(cfg(priDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := pre.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	const history = 2000
	for i, published := 0, 0; published < history; i++ {
		person := fmt.Sprintf("PRS-%06d", i)
		if m.Owner(pre.Pseudonym(person)) != 0 {
			continue
		}
		if _, err := pre.Publish(&event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("src-%06d", i)), Class: schema.ClassBloodTest,
			PersonID: person, Summary: "blood test", Producer: "hospital",
			OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
		published++
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}

	replica, err := core.New(cfg(repDir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	repNode := startNode(t, replica, replication.NodeConfig{Role: replication.RoleReplica, DataDir: repDir})
	primary, err := core.New(cfg(priDir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	startNode(t, primary, replication.NodeConfig{Role: replication.RolePrimary, DataDir: priDir,
		Peers: []string{repNode.Addr()}})
	waitSameWALs(t, primary, replica)
}
