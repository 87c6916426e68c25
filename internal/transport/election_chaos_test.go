package transport

// Self-healing failover chaos: a primary shipping to two replicas, each
// replica's node campaigning over real campaign frames. The
// primary is killed mid-storm with no operator in the loop — the
// detectors must notice, exactly one replica must win a quorum and
// promote, acknowledged publishes must land exactly once on the winner,
// a deposed-epoch shipper must be fenced off, and the dead node's
// stores must rejoin byte-identically. A second storm cuts the
// candidate→voter links during the campaign window and demands zero
// promotions until the partition heals.

import (
	"bytes"
	"context"
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

// electionRig is one shard deployed for self-healing drills: a primary
// heartbeating WALs to two replicas, each replica's node campaigning
// through a partitionable dialer when the primary goes silent.
type electionRig struct {
	heartbeat time.Duration

	pri     *core.Controller
	priSrv  *testServer
	priNode *replication.Node

	reps    [2]*core.Controller
	repSrvs [2]*testServer
	repURLs [2]string
	nodes   [2]*replication.Node
	// rejoinAddr is where the dead primary's stores come back as a
	// follower: every replica names it as a peer from the start, so the
	// winner ships to it as soon as it listens.
	rejoinAddr string

	part *testsupport.Partitioner[net.Conn]
	v1   *cluster.Map
	// promotions records each auto-promotion as it happens (index, epoch).
	promoMu    sync.Mutex
	promotions []promotion
}

type promotion struct {
	replica int
	epoch   uint64
}

// freeAddr reserves a loopback address for a listener started later.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func newElectionRig(t *testing.T, seed int64) *electionRig {
	t.Helper()
	key := bytes.Repeat([]byte{7}, crypto.KeySize)
	rig := &electionRig{heartbeat: 20 * time.Millisecond, rejoinAddr: freeAddr(t)}
	rig.part = testsupport.NewPartitioner(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 2*time.Second)
	})

	rig.priSrv = newUnstartedTestServer(t)
	rig.repSrvs = [2]*testServer{newUnstartedTestServer(t), newUnstartedTestServer(t)}
	priURL := rig.priSrv.URL
	for i, s := range rig.repSrvs {
		rig.repURLs[i] = s.URL
	}
	v1, err := cluster.NewMap(1, 0, []cluster.ShardInfo{
		{ID: 0, Addr: priURL, Replicas: rig.repURLs[:], Epoch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.v1 = v1

	priDir := t.TempDir()
	rig.pri, err = core.New(core.Config{
		DataDir: priDir, MasterKey: key, DefaultConsent: true,
		ShardID: 0, ShardMap: v1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.pri.Close() })

	// Each replica's electorate is the other replica; cluster size 3 (the
	// primary holds the third seat), so a candidate needs its own durable
	// claim plus the peer's grant — a strict majority that one
	// partitioned node can never fake.
	listen := [2]string{freeAddr(t), freeAddr(t)}
	for i := range rig.reps {
		dir := t.TempDir()
		rig.reps[i], err = core.New(core.Config{
			DataDir: dir, MasterKey: key, DefaultConsent: true,
			ShardID: 0, ShardMap: v1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, idx := rig.reps[i], i
		t.Cleanup(func() { rep.Close() })
		rig.nodes[i] = startNode(t, rep, replication.NodeConfig{
			Role: replication.RoleReplica, DataDir: dir, Listen: listen[i],
			Peers: []string{listen[1-i], rig.rejoinAddr}, ClusterSize: 3,
			Quorum: true, Election: true,
			HeartbeatEvery: rig.heartbeat,
			SuspectAfter:   300 * time.Millisecond,
			Phi:            4,
			LeaseFor:       400 * time.Millisecond,
			Backoff:        150 * time.Millisecond,
			Seed:           seed*2 + int64(i) + 1,
			Dial:           rig.part.Dial,
			OnPromoted:     func(epoch uint64) { rig.promoted(t, idx, epoch) },
		})
	}
	rig.priNode = startNode(t, rig.pri, replication.NodeConfig{
		Role: replication.RolePrimary, DataDir: priDir, Peers: listen[:],
		Quorum: true, HeartbeatEvery: rig.heartbeat,
	})

	if err := rig.pri.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := rig.pri.RegisterConsumer("family-doctor", "Doctors"); err != nil {
		t.Fatal(err)
	}
	if err := rig.pri.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.pri.DefinePolicy(doctorBloodPolicy()); err != nil {
		t.Fatal(err)
	}

	rig.priSrv.Start(NewServer(rig.pri).SetNode(rig.priNode))
	t.Cleanup(rig.priSrv.Close)
	for i, s := range rig.repSrvs {
		s.Start(NewServer(rig.reps[i]).SetNode(rig.nodes[i]))
		t.Cleanup(s.Close)
	}

	// Quorum mode already barriers every publish on a majority fsync,
	// but provisioning must reach BOTH replicas before the kill — either
	// may win the election.
	for _, rep := range rig.reps {
		waitSameWALs(t, rig.pri, rep)
	}
	return rig
}

// promoted observes a replica's node finishing a promotion: install the
// successor map so stale clients can be rescued off this node, and
// record the win.
func (rig *electionRig) promoted(t *testing.T, i int, epoch uint64) {
	v2, err := rig.v1.WithPromotedReplica(0, rig.repURLs[i])
	if err != nil {
		t.Errorf("successor map: %v", err)
		return
	}
	if err := rig.reps[i].AdoptMap(v2); err != nil {
		t.Errorf("adopt successor map: %v", err)
		return
	}
	rig.promoMu.Lock()
	rig.promotions = append(rig.promotions, promotion{replica: i, epoch: epoch})
	rig.promoMu.Unlock()
}

func (rig *electionRig) snapshotPromotions() []promotion {
	rig.promoMu.Lock()
	defer rig.promoMu.Unlock()
	return append([]promotion(nil), rig.promotions...)
}

// kill takes the primary off the network and silences its heartbeats —
// the failure the managers must detect on their own.
func (rig *electionRig) kill() {
	rig.priSrv.CloseClientConnections()
	go rig.priSrv.Close()
	rig.priNode.Close()
}

// winner returns the final authority: the promoted replica at the
// highest epoch (sequential re-elections at distinct epochs are a
// liveness hiccup, not split-brain; the highest epoch owns the shard).
func (rig *electionRig) winner(t *testing.T) (int, uint64) {
	t.Helper()
	promos := rig.snapshotPromotions()
	if len(promos) == 0 {
		t.Fatal("no replica was promoted")
	}
	seen := map[uint64]int{}
	best := promos[0]
	for _, p := range promos {
		if prev, dup := seen[p.epoch]; dup && prev != p.replica {
			t.Fatalf("split brain: replicas %d and %d both promoted at epoch %d", prev, p.replica, p.epoch)
		}
		seen[p.epoch] = p.replica
		if p.epoch > best.epoch {
			best = p
		}
	}
	return best.replica, best.epoch
}

func (rig *electionRig) stormClient(t *testing.T, seed int64) *ShardedClient {
	t.Helper()
	fi := newChaosTransport(testsupport.FaultConfig{
		Seed:           seed,
		ConnectFailure: 0.05,
		ServerError:    0.03,
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
	return sc
}

func electionNote(person string) *event.Notification {
	return &event.Notification{
		Producer: "hospital", SourceID: event.SourceID("src-" + person),
		Class: schema.ClassBloodTest, PersonID: person, Summary: "blood test",
		OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
	}
}

// storm publishes one event per person through sc, retrying each until
// acknowledged, running killAt() before dispatching the middle one.
func electionStorm(t *testing.T, sc *ShardedClient, persons []string, killAt func()) {
	t.Helper()
	ctx := context.Background()
	idxCh := make(chan int)
	errCh := make(chan error, len(persons))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				deadline := time.Now().Add(60 * time.Second)
				for {
					_, err := sc.Publish(ctx, electionNote(persons[i]))
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
			killAt()
		}
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestChaosElectionFailover kills the primary mid-storm with no promote
// call anywhere. Acceptance: exactly one auto-elected winner per epoch,
// every acknowledged publish indexed exactly once on the final winner,
// a deposed-epoch shipper fenced off by the electorate, and the dead
// primary's stores rejoining byte-identical to the winner's.
func TestChaosElectionFailover(t *testing.T) {
	seeds := stormSeeds()
	if len(seeds) > 3 {
		seeds = seeds[:3]
	}
	for len(seeds) < 3 {
		seeds = append(seeds, seeds[len(seeds)-1]+1)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rig := newElectionRig(t, seed)
			sc := rig.stormClient(t, seed)
			persons := make([]string, 20)
			for i := range persons {
				persons[i] = fmt.Sprintf("ELE-%03d", i)
			}
			electionStorm(t, sc, persons, rig.kill)

			win, epoch := rig.winner(t)
			winner := rig.reps[win]
			if epoch < 2 {
				t.Fatalf("winner at epoch %d, want >= 2", epoch)
			}
			if held := rig.nodes[win].Status().Epoch; winner.IsReplica() || held != epoch {
				t.Fatalf("winner role: replica=%v epoch=%d, want primary at %d",
					winner.IsReplica(), held, epoch)
			}

			// Exactly-once on the winner, storm retries included.
			for _, person := range persons {
				notes, err := winner.InquireIndex("family-doctor", index.Inquiry{PersonID: person})
				if err != nil {
					t.Fatalf("inquire %s: %v", person, err)
				}
				if len(notes) != 1 {
					t.Errorf("winner holds %d events for %s, want exactly 1", len(notes), person)
				}
			}
			if n, err := testsupport.Indexed(winner.Audit()); err != nil || n != len(persons) {
				t.Errorf("winner index holds %d events (%v), want %d", n, err, len(persons))
			}
			if err := winner.Audit().Verify(); err != nil {
				t.Errorf("audit chain on the winner: %v", err)
			}

			// Zero split-brain: a shipper still claiming the dead epoch is
			// fenced at hello by the very followers that elected the winner.
			priStores, err := rig.pri.ReplStores()
			if err != nil {
				t.Fatal(err)
			}
			deposed, err := replication.NewPrimary(replication.PrimaryConfig{
				Stores: priStores, Epoch: 1, Quorum: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			deposed.AddFollower(rig.nodes[1-win].Addr())
			fenceWait := time.Now().Add(5 * time.Second)
			for !deposed.Fenced() {
				if time.Now().After(fenceWait) {
					t.Error("deposed-epoch shipper was never fenced")
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			deposed.Close()

			// Rejoin: the dead node's stores — including any unreplicated
			// old-epoch suffix — come back as a follower and converge to
			// the winner's bytes.
			priStores[0].Store.Put("rogue-unreplicated", []byte("old-epoch suffix"))
			rejoin, err := replication.NewFollower(rig.rejoinAddr, replication.FollowerConfig{
				Stores: priStores, Epoch: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rejoin.Close()
			winStores, err := winner.ReplStores()
			if err != nil {
				t.Fatal(err)
			}
			catchUp := time.Now().Add(10 * time.Second)
			for {
				same := true
				for si, ns := range winStores {
					w := ns.Store
					r := priStores[si].Store
					if r.WALOffset() != w.WALOffset() {
						same = false
						break
					}
					wc, err1 := w.CRCWAL(w.WALGen(), 0, w.WALOffset())
					rc, err2 := r.CRCWAL(r.WALGen(), 0, r.WALOffset())
					if err1 != nil || err2 != nil || wc != rc {
						same = false
						break
					}
				}
				if same {
					break
				}
				if time.Now().After(catchUp) {
					t.Fatal("rejoined node never converged to the winner's bytes")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if v, ok, _ := priStores[0].Store.Get("rogue-unreplicated"); ok {
				t.Errorf("old-epoch suffix %q survived the rejoin", v)
			}
		})
	}
}

// TestChaosElectionPartitionedCampaign cuts the candidate→voter links
// at the moment the primary dies: no candidate can reach a quorum, so
// there must be zero promotions while the partition holds — a minority
// node must never elect itself — and exactly one winner once it heals.
func TestChaosElectionPartitionedCampaign(t *testing.T) {
	seeds := stormSeeds()
	if len(seeds) > 3 {
		seeds = seeds[:3]
	}
	for len(seeds) < 3 {
		seeds = append(seeds, seeds[len(seeds)-1]+1)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rig := newElectionRig(t, seed)
			sc := rig.stormClient(t, seed)
			persons := make([]string, 16)
			for i := range persons {
				persons[i] = fmt.Sprintf("PRT-%03d", i)
			}

			healed := make(chan struct{})
			kill := func() {
				// Partition first, then kill: every campaign triggered by
				// the death runs into the cut links.
				rig.part.Block(rig.nodes[0].Addr(), rig.nodes[1].Addr())
				rig.kill()
				go func() {
					defer close(healed)
					// Hold the partition across several campaign rounds.
					time.Sleep(1500 * time.Millisecond)
					if got := rig.snapshotPromotions(); len(got) != 0 {
						t.Errorf("%d promotions during the partition, want 0 (minority self-election)", len(got))
					}
					rig.part.Heal(rig.nodes[0].Addr(), rig.nodes[1].Addr())
				}()
			}
			electionStorm(t, sc, persons, kill)
			<-healed

			win, epoch := rig.winner(t)
			winner := rig.reps[win]
			if held := rig.nodes[win].Status().Epoch; winner.IsReplica() || held != epoch {
				t.Fatalf("winner role: replica=%v epoch=%d, want primary at %d",
					winner.IsReplica(), held, epoch)
			}
			for _, person := range persons {
				notes, err := winner.InquireIndex("family-doctor", index.Inquiry{PersonID: person})
				if err != nil {
					t.Fatalf("inquire %s: %v", person, err)
				}
				if len(notes) != 1 {
					t.Errorf("winner holds %d events for %s, want exactly 1", len(notes), person)
				}
			}
			if err := winner.Audit().Verify(); err != nil {
				t.Errorf("audit chain on the winner: %v", err)
			}
		})
	}
}
