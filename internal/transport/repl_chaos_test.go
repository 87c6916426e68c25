package transport

// Replication failover chaos: a primary/replica pair under a publish
// storm with injected connection failures, server errors, and a flaky
// replication link. Mid-storm the primary is killed off the network and
// the replica claims the next epoch. Every acknowledged publish must be
// indexed exactly once on the survivor, its audit hash-chain must
// verify end-to-end, and the deposed primary's split-brain writes must
// be fenced off the replicated chain.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/schema"
	"repro/internal/testsupport"
)

// replChaosRig is one shard as deployed for failover drills: a primary
// and a read replica, each role held by its replication node, joined by
// a quorum-mode WAL shipper over a flaky link, each behind its own HTTP
// server, routed by a map that names the replica.
type replChaosRig struct {
	primary, replica *core.Controller
	priSrv, repSrv   *testServer
	priNode, repNode *replication.Node
	v1               *cluster.Map
}

func newReplChaosRig(t *testing.T, seed int64) *replChaosRig {
	t.Helper()
	key := bytes.Repeat([]byte{7}, crypto.KeySize)
	rig := &replChaosRig{}

	rig.priSrv = newUnstartedTestServer(t)
	rig.repSrv = newUnstartedTestServer(t)
	priURL, repURL := rig.priSrv.URL, rig.repSrv.URL
	v1, err := cluster.NewMap(1, 0, []cluster.ShardInfo{
		{ID: 0, Addr: priURL, Replicas: []string{repURL}, Epoch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.v1 = v1

	priDir, repDir := t.TempDir(), t.TempDir()
	rig.primary, err = core.New(core.Config{
		DataDir: priDir, MasterKey: key, DefaultConsent: true,
		ShardID: 0, ShardMap: v1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.primary.Close() })
	rig.replica, err = core.New(core.Config{
		DataDir: repDir, MasterKey: key, DefaultConsent: true,
		ShardID: 0, ShardMap: v1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.replica.Close() })

	rig.repNode = startNode(t, rig.replica, replication.NodeConfig{
		Role: replication.RoleReplica, DataDir: repDir,
		// The promoted node installs the successor map, so stale clients
		// can be rescued off it.
		OnPromoted: func(uint64) {
			v2, err := rig.v1.WithPromotedReplica(0, repURL)
			if err != nil {
				t.Errorf("successor map: %v", err)
				return
			}
			if err := rig.replica.AdoptMap(v2); err != nil {
				t.Errorf("adopt successor map: %v", err)
			}
		},
	})
	// Quorum mode with a flaky link: every acked publish is fsynced on
	// the follower first, so a kill cannot lose acknowledged events, and
	// the injected dial failures exercise the reconnect/catch-up path
	// mid-storm.
	rig.priNode = startNode(t, rig.primary, replication.NodeConfig{
		Role: replication.RolePrimary, DataDir: priDir,
		Peers: []string{rig.repNode.Addr()}, Quorum: true,
		Dial: testsupport.FlakyDialer(seed, 0.3, func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}),
	})

	if err := rig.primary.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := rig.primary.RegisterConsumer("family-doctor", "Doctors"); err != nil {
		t.Fatal(err)
	}
	if err := rig.primary.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.primary.DefinePolicy(doctorBloodPolicy()); err != nil {
		t.Fatal(err)
	}

	rig.priSrv.Start(NewServer(rig.primary).SetNode(rig.priNode))
	t.Cleanup(rig.priSrv.Close)
	rig.repSrv.Start(NewServer(rig.replica).SetNode(rig.repNode))
	t.Cleanup(rig.repSrv.Close)

	// The storm must not race provisioning onto the replica: wait until
	// the catalog and policy writes are applied before any failover can
	// strand them on the dead node.
	waitSameWALs(t, rig.primary, rig.replica)
	return rig
}

// failover is the runbook executed mid-storm: promote the replica at the
// next epoch (its node fences the old one, flips the role and installs
// the successor map), and only then yank the old primary off the
// network — the harshest ordering, since clients keep hammering the
// deposed node while the replica already owns the shard.
func (rig *replChaosRig) failover(t *testing.T) {
	if err := rig.repNode.Promote(2); err != nil {
		t.Errorf("promote: %v", err)
		return
	}
	rig.priSrv.CloseClientConnections()
	go rig.priSrv.Close()
}

// TestChaosReplFailover kills the primary mid-storm. Acceptance: every
// acknowledged publish indexed exactly once on the promoted replica,
// its audit chain intact, and the deposed primary's post-fence write
// rejected with ErrFenced and absent from the survivor.
func TestChaosReplFailover(t *testing.T) {
	// Three seeds per the failover drill: the first three of the storm
	// set when `make chaos` widens it, padded to three for plain go test.
	seeds := stormSeeds()
	if len(seeds) > 3 {
		seeds = seeds[:3]
	}
	for len(seeds) < 3 {
		seeds = append(seeds, seeds[len(seeds)-1]+1)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rig := newReplChaosRig(t, seed)
			fi := newChaosTransport(testsupport.FaultConfig{
				Seed:           seed,
				ConnectFailure: 0.05,
				ServerError:    0.03,
				TruncateBody:   0.03,
			})
			sc, err := NewShardedClient(rig.v1, func(info cluster.ShardInfo) *Client {
				return NewClient(info.Addr, &http.Client{Transport: fi, Timeout: 5 * time.Second},
					WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{
						MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: seed,
					})))
			})
			if err != nil {
				t.Fatal(err)
			}

			persons := make([]string, 20)
			for i := range persons {
				persons[i] = fmt.Sprintf("RFO-%03d", i)
			}
			note := func(person string) *event.Notification {
				return &event.Notification{
					Producer: "hospital", SourceID: event.SourceID("src-" + person),
					Class: schema.ClassBloodTest, PersonID: person, Summary: "blood test",
					OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
				}
			}

			ctx := context.Background()
			idxCh := make(chan int)
			errCh := make(chan error, len(persons))
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range idxCh {
						deadline := time.Now().Add(30 * time.Second)
						for {
							_, err := sc.Publish(ctx, note(persons[i]))
							if err == nil {
								break
							}
							if time.Now().After(deadline) {
								errCh <- fmt.Errorf("publish %s never acknowledged: %w", persons[i], err)
								break
							}
							time.Sleep(20 * time.Millisecond)
						}
					}
				}()
			}
			for i := range persons {
				if i == len(persons)/2 {
					rig.failover(t)
				}
				idxCh <- i
			}
			close(idxCh)
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}

			// Exactly-once on the survivor: one event per person, no
			// duplicates from cross-failover retries (the replicated idmap
			// deduplicates source ids), total matches.
			for _, person := range persons {
				notes, err := rig.replica.InquireIndex("family-doctor", index.Inquiry{PersonID: person})
				if err != nil {
					t.Fatalf("inquire %s: %v", person, err)
				}
				if len(notes) != 1 {
					t.Errorf("survivor holds %d events for %s, want exactly 1", len(notes), person)
				}
			}
			n, err := testsupport.Indexed(rig.replica.Audit())
			if err != nil {
				t.Fatal(err)
			}
			if n != len(persons) {
				t.Errorf("survivor index holds %d events, want exactly %d", n, len(persons))
			}
			if err := rig.replica.Audit().Verify(); err != nil {
				t.Errorf("audit chain on the survivor: %v", err)
			}
			if st := rig.repNode.Status(); rig.replica.IsReplica() || st.Epoch != 2 {
				t.Errorf("survivor role: replica=%v epoch=%d, want promoted at epoch 2",
					rig.replica.IsReplica(), st.Epoch)
			}
			if v := sc.Map().Version(); v != 2 {
				t.Errorf("client routes by map v%d, want the successor v2", v)
			}

			// Split brain: the deposed primary still accepts the call
			// in-process, but its quorum barrier must reject the write —
			// the follower holds epoch 2 and denies its frames — and the
			// event must never reach the survivor's chain.
			_, err = rig.primary.Publish(note("RFO-SPLIT-BRAIN"))
			if !errors.Is(err, replication.ErrFenced) {
				t.Errorf("deposed primary publish = %v, want ErrFenced", err)
			}
			if !rig.priNode.Status().Fenced {
				t.Error("deposed shipper does not report fenced")
			}
			ghosts, err := rig.replica.InquireIndex("family-doctor", index.Inquiry{PersonID: "RFO-SPLIT-BRAIN"})
			if err != nil {
				t.Fatal(err)
			}
			if len(ghosts) != 0 {
				t.Errorf("split-brain write leaked onto the survivor (%d events)", len(ghosts))
			}
		})
	}
}
