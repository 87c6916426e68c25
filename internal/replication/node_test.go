package replication

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestDetectorPhiGrowsWithSilence(t *testing.T) {
	d := newDetector(100 * time.Millisecond)
	base := time.Unix(1000, 0)
	if got := d.Phi(base); got != 0 {
		t.Fatalf("phi before first contact = %v, want 0", got)
	}
	// Steady 100ms heartbeats: phi right after a beat is tiny.
	now := base
	for i := 0; i < 20; i++ {
		d.Observe(now)
		now = now.Add(100 * time.Millisecond)
	}
	last := now.Add(-100 * time.Millisecond)
	if phi := d.Phi(last.Add(10 * time.Millisecond)); phi > 1 {
		t.Fatalf("phi 10ms after a beat = %v, want small", phi)
	}
	short := d.Phi(last.Add(200 * time.Millisecond))
	long := d.Phi(last.Add(2 * time.Second))
	if !(long > short && short > 0) {
		t.Fatalf("phi not monotone in silence: %v then %v", short, long)
	}
	if long < 8 {
		t.Fatalf("phi after 20 missed beats = %v, want well past threshold 8", long)
	}
	if el := d.Elapsed(last.Add(2 * time.Second)); el != 2*time.Second {
		t.Fatalf("elapsed = %v, want 2s", el)
	}
}

func TestDetectorAdaptsToSlowCadence(t *testing.T) {
	d := newDetector(100 * time.Millisecond)
	base := time.Unix(1000, 0)
	now := base
	// The link is actually beating once per second: the same 2s of
	// silence that damned the fast link must look mild here.
	for i := 0; i < 20; i++ {
		d.Observe(now)
		now = now.Add(time.Second)
	}
	last := now.Add(-time.Second)
	if phi := d.Phi(last.Add(2 * time.Second)); phi > 2 {
		t.Fatalf("phi after one missed slow beat = %v, want < 2", phi)
	}
}

func TestEpochCellPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), epochFile)
	c, err := openEpoch(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Load() != 1 {
		t.Fatalf("fresh cell holds %d, want the floor 1", c.Load())
	}
	for _, tc := range []struct {
		epoch uint64
		want  bool
	}{{1, false}, {3, true}, {3, false}, {2, false}, {7, true}, {7, false}} {
		got, err := c.Raise(tc.epoch)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("Raise(%d) = %v, want %v", tc.epoch, got, tc.want)
		}
	}
	// Crash-restart: the raised value must come back.
	re, err := openEpoch(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Load() != 7 {
		t.Fatalf("reopened cell holds %d, want 7", re.Load())
	}
}

// testNode starts a replica Node over fresh stores under dir with fast,
// seeded election timings (the silence floor does the gating), and
// watches that the epoch it reports never decreases until the test ends.
func testNode(t *testing.T, dir string, mut func(*NodeConfig)) *Node {
	t.Helper()
	cfg := NodeConfig{
		Role: RoleReplica, DataDir: dir, Stores: openStores(t, dir), Listen: "127.0.0.1:0",
		HeartbeatEvery: 10 * time.Millisecond, SuspectAfter: 30 * time.Millisecond, Phi: 0.01,
		LeaseFor: 80 * time.Millisecond, Backoff: 10 * time.Millisecond, Seed: 42,
		Promote: func() error { return nil },
		Metrics: telemetry.NewRegistry(),
	}
	if mut != nil {
		mut(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			if e := n.Status().Epoch; e < last {
				t.Errorf("epoch decreased from %d to %d", last, e)
			} else {
				last = e
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	t.Cleanup(func() {
		close(done)
		wg.Wait()
		n.Close()
	})
	return n
}

// waitFor polls cond until it holds, failing the test after a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNodeTransitions walks the role/epoch state machine one transition
// per case, over loopback sockets.
func TestNodeTransitions(t *testing.T) {
	t.Run("heartbeats stop and the probe fails: one campaign, leader at epoch+1", func(t *testing.T) {
		var probes, readied atomic.Int64
		var primaryDead atomic.Bool
		promoted := make(chan uint64, 4)
		voters := []*Node{testNode(t, t.TempDir(), nil), testNode(t, t.TempDir(), nil)}
		cand := testNode(t, t.TempDir(), func(c *NodeConfig) {
			c.Election = true
			c.Peers = []string{voters[0].Addr(), voters[1].Addr()}
			c.LeaseFor = 500 * time.Millisecond
			c.Probe = func(context.Context) error {
				if !primaryDead.Load() {
					return nil
				}
				probes.Add(1)
				return errors.New("primary unreachable")
			}
			c.Promote = func() error {
				readied.Add(1)
				return nil
			}
			c.OnPromoted = func(epoch uint64) { promoted <- epoch }
		})

		// A beating primary holds the candidate in watching.
		pri, err := NewPrimary(PrimaryConfig{
			Stores: openStores(t, t.TempDir()), Epoch: 1, HeartbeatEvery: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pri.Close()
		pri.AddFollower(cand.Addr())
		time.Sleep(100 * time.Millisecond)
		if st := cand.Status(); st.Election != StateWatching || st.Campaigns != 0 || st.Epoch != 1 {
			t.Fatalf("status under a beating primary = %+v, want watching at epoch 1 with no campaign", st)
		}

		pri.Close()
		primaryDead.Store(true)
		var epoch uint64
		select {
		case epoch = <-promoted:
		case <-time.After(time.Second):
			t.Fatalf("no election after the heartbeats stopped: %+v", cand.Status())
		}
		st := cand.Status()
		if epoch != 2 || st.Role != RolePrimary || st.Epoch != 2 || st.Election != StateLeader || st.Campaigns != 1 || st.Won != 1 {
			t.Fatalf("promoted at %d with status %+v, want one campaign won at epoch 2", epoch, st)
		}
		if probes.Load() == 0 || readied.Load() != 1 {
			t.Fatalf("%d probes, %d Promote calls; want the probe consulted and one promotion", probes.Load(), readied.Load())
		}
		// A quorum's worth of voters durably granted the epoch, and a
		// grant is the voter's new fencing epoch.
		granted := 0
		for _, v := range voters {
			if v.Status().Epoch == 2 {
				granted++
			}
		}
		if granted < 1 {
			t.Fatal("no voter holds epoch 2")
		}
		// Leading, it heartbeats the voters and the loop has stood down.
		waitFor(t, "both voters at the leader's epoch", func() bool {
			return voters[0].Status().Epoch == 2 && voters[1].Status().Epoch == 2
		})
		time.Sleep(60 * time.Millisecond)
		if st := cand.Status(); st.Campaigns != 1 {
			t.Fatalf("leader kept campaigning: %+v", st)
		}
	})

	t.Run("a healthy probe suppresses the campaign", func(t *testing.T) {
		var probes atomic.Int64
		n := testNode(t, t.TempDir(), func(c *NodeConfig) {
			c.Election = true
			c.Probe = func(context.Context) error {
				probes.Add(1)
				return nil // the primary is reachable over HTTP
			}
		})
		waitFor(t, "three probes", func() bool { return probes.Load() >= 3 })
		if st := n.Status(); st.Campaigns != 0 || st.Election != StateWatching || st.Epoch != 1 {
			t.Fatalf("status = %+v, want watching at epoch 1 with 0 campaigns", st)
		}
	})

	t.Run("late grants are discarded", func(t *testing.T) {
		voter := testNode(t, t.TempDir(), nil)
		n := testNode(t, t.TempDir(), func(c *NodeConfig) {
			c.Election = true
			c.Peers = []string{voter.Addr()}
			c.ClusterSize = 3
			c.LeaseFor = 40 * time.Millisecond
			// Every voter answers only after the lease window closed.
			c.Dial = func(addr string) (net.Conn, error) {
				time.Sleep(60 * time.Millisecond)
				return net.Dial("tcp", addr)
			}
		})
		waitFor(t, "two campaigns", func() bool { return n.Status().Campaigns >= 2 })
		if st := n.Status(); st.Won != 0 || st.Role != RoleReplica {
			t.Fatalf("status = %+v; a candidate whose grants all arrive late must lose", st)
		}
	})

	t.Run("a lost campaign adopts the epoch a denying peer holds", func(t *testing.T) {
		// The voter holds epoch 7, so it denies every claim up to 7.
		voter := testNode(t, t.TempDir(), nil)
		if _, err := voter.epoch.Raise(7); err != nil {
			t.Fatal(err)
		}
		promoted := make(chan uint64, 1)
		n := testNode(t, t.TempDir(), func(c *NodeConfig) {
			c.Election = true
			c.Peers = []string{voter.Addr()}
			c.ClusterSize = 3
			c.OnPromoted = func(epoch uint64) { promoted <- epoch }
		})
		var epoch uint64
		select {
		case epoch = <-promoted:
		case <-time.After(5 * time.Second):
			t.Fatalf("no promotion: %+v", n.Status())
		}
		// The first claim (2) is denied; the second goes past 7 at once
		// instead of climbing one epoch a round.
		if st := n.Status(); epoch != 8 || st.Campaigns != 2 || st.Won != 1 {
			t.Fatalf("promoted at %d with status %+v, want epoch 8 on the second campaign", epoch, st)
		}
	})

	t.Run("manual promote while watching stands the loop down", func(t *testing.T) {
		var mu sync.Mutex
		var log []string
		// No peers: a loop that kept running would win any campaign alone.
		n := testNode(t, t.TempDir(), func(c *NodeConfig) {
			c.Election = true
			c.Logf = func(format string, args ...any) {
				mu.Lock()
				log = append(log, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
		})
		if err := n.Promote(5); err != nil {
			t.Fatal(err)
		}
		if st := n.Status(); st.Role != RolePrimary || st.Epoch != 5 || st.Election != StateLeader {
			t.Fatalf("status after manual promote = %+v, want primary/leader at epoch 5", st)
		}
		waitFor(t, "the campaign loop to stand down", func() bool {
			mu.Lock()
			defer mu.Unlock()
			for _, line := range log {
				if strings.Contains(line, "standing down") {
					return true
				}
			}
			return false
		})
		if st := n.Status(); st.Campaigns != 0 || st.Epoch != 5 {
			t.Fatalf("status = %+v, want no campaign and epoch still 5", st)
		}
		if err := n.Promote(6); !errors.Is(err, ErrNotReplica) {
			t.Fatalf("second promote = %v, want ErrNotReplica", err)
		}
	})

	t.Run("a promote below the held epoch is refused", func(t *testing.T) {
		n := testNode(t, t.TempDir(), nil)
		if _, err := n.epoch.Raise(4); err != nil {
			t.Fatal(err)
		}
		if err := n.Promote(3); !errors.Is(err, ErrFenced) {
			t.Fatalf("promote at 3 while holding 4 = %v, want ErrFenced", err)
		}
		if st := n.Status(); st.Role != RoleReplica || st.Epoch != 4 {
			t.Fatalf("status = %+v, want replica at epoch 4", st)
		}
	})

	t.Run("a leader refuses to vote", func(t *testing.T) {
		n := testNode(t, t.TempDir(), nil)
		if err := n.Promote(2); err != nil {
			t.Fatal(err)
		}
		granted, voterEpoch, err := Campaign(context.Background(), nil, n.Addr(), 9, n.follower.Offsets())
		if err != nil {
			t.Fatal(err)
		}
		if granted || voterEpoch != 2 || n.Status().Epoch != 2 {
			t.Fatalf("leader at epoch 2 answered a campaign for 9: granted=%v voterEpoch=%d status=%+v",
				granted, voterEpoch, n.Status())
		}
	})
}

// TestNodeEpochSurvivesReopen: every way the epoch can rise is durable —
// a node closed and reopened on the same data dir, with no flag naming
// an epoch, comes back at the raised value on either role.
func TestNodeEpochSurvivesReopen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reopen string
		mut    func(*NodeConfig)
		raise  func(t *testing.T, n *Node)
	}{
		{name: "granted vote", reopen: RoleReplica, raise: func(t *testing.T, n *Node) {
			granted, _, err := Campaign(context.Background(), nil, n.Addr(), 7, n.follower.Offsets())
			if err != nil || !granted {
				t.Fatalf("campaign = %v, %v; want granted", granted, err)
			}
		}},
		{name: "claimed epoch", reopen: RoleReplica, mut: func(c *NodeConfig) {
			c.Election = true
			c.Peers = []string{"127.0.0.1:1", "127.0.0.1:2"} // nobody to grant it
		}, raise: func(t *testing.T, n *Node) {
			waitFor(t, "a lost campaign", func() bool { return n.Status().Campaigns >= 1 })
		}},
		{name: "manual promote", reopen: RolePrimary, raise: func(t *testing.T, n *Node) {
			if err := n.Promote(4); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n := testNode(t, dir, tc.mut)
			tc.raise(t, n)
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			want := n.Status().Epoch
			if want < 2 {
				t.Fatalf("epoch %d after the raise, want >= 2", want)
			}
			for _, ns := range n.cfg.Stores {
				ns.Store.Close()
			}
			re := testNode(t, dir, func(c *NodeConfig) { c.Role = tc.reopen })
			if st := re.Status(); st.Epoch != want || st.Role != tc.reopen {
				t.Fatalf("reopened as %+v, want %s at epoch %d", st, tc.reopen, want)
			}
		})
	}
}
