package transport

// Multi-shard chaos: the cluster invariants — every acknowledged
// publish indexed exactly once, on exactly the owning shard, with
// every shard's audit hash-chain intact — must survive a shard
// dropping off the network mid-storm. Runs short by default; `make
// chaos` stretches the partition window via CHAOS_PARTITION.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/index"
	"repro/internal/resilience"
	"repro/internal/testsupport"
)

// chaosPartition returns the scripted partition window: short for
// `go test ./...`, stretched by `make chaos` (CHAOS_PARTITION=3s).
func chaosPartition() time.Duration {
	if v := os.Getenv("CHAOS_PARTITION"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return 300 * time.Millisecond
}

// newShardChaosClient builds a fault-tolerant sharded client over the
// rig: one fault injector in front of every shard (so PartitionHosts
// can cut a single shard while the rest keep answering), retries, and
// per-shard breaker groups.
func newShardChaosClient(t *testing.T, r *shardRig, seed int64) (*ShardedClient, chaosTransport) {
	t.Helper()
	fi := newChaosTransport(testsupport.FaultConfig{
		Seed:           seed,
		ConnectFailure: 0.10,
		ServerError:    0.03,
		TruncateBody:   0.03,
	})
	sc, err := NewShardedClient(r.m, func(info cluster.ShardInfo) *Client {
		return NewClient(info.Addr, &http.Client{Transport: fi, Timeout: 5 * time.Second},
			WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{
				MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: seed,
			})),
			WithBreakerGroup(resilience.NewGroup(resilience.BreakerConfig{OpenFor: 150 * time.Millisecond})))
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc, fi
}

// stormPublish drives persons[i] through sc from a small worker pool,
// retrying each publish past transient faults (open breakers included)
// until it is acknowledged or the per-publish deadline expires. Fires
// mid after half the persons have been handed to workers.
func stormPublish(t *testing.T, sc *ShardedClient, r *shardRig, persons []string, mid func()) {
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
				deadline := time.Now().Add(30 * time.Second)
				for {
					_, err := sc.Publish(ctx, r.note(persons[i], 0))
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
			mid()
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

// assertClusterInvariants checks the acceptance conditions after a
// storm: the cluster indexes exactly one event per person, each on the
// shard the map owns it to, and every shard's audit chain verifies.
func assertClusterInvariants(t *testing.T, r *shardRig, persons []string) {
	t.Helper()
	if got := r.indexTotal(t); got != len(persons) {
		t.Errorf("cluster index holds %d events, want exactly %d", got, len(persons))
	}
	for _, person := range persons {
		owner := r.m.Owner(r.ctrls[0].Pseudonym(person))
		for _, c := range r.ctrls {
			self := c.ShardID()
			notes, err := c.InquireIndex("family-doctor", index.Inquiry{PersonID: person})
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case self == owner && len(notes) != 1:
				t.Errorf("owner %s holds %d events for %s, want 1", self, len(notes), person)
			case self != owner && len(notes) != 0:
				t.Errorf("non-owner %s holds %d events for %s", self, len(notes), person)
			}
		}
	}
	for _, c := range r.ctrls {
		if err := c.Audit().Verify(); err != nil {
			id := c.ShardID()
			t.Errorf("audit chain on %s broken: %v", id, err)
		}
	}
}

// TestChaosShardKill cuts one shard off the network in the middle of a
// publish storm (with background connection failures, injected 503s
// and truncated acks on every hop). Once the partition heals, every
// publish must be indexed exactly once on its owning shard and every
// per-shard audit chain must verify.
func TestChaosShardKill(t *testing.T) {
	window := chaosPartition()
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newShardRig(t, 3)
			sc, fi := newShardChaosClient(t, r, seed)

			persons := make([]string, 24)
			for i := range persons {
				persons[i] = fmt.Sprintf("PRK-%03d", i)
			}
			// Partition the shard that owns the first post-window person,
			// so the cut provably lands in the storm's path.
			victim := r.m.Owner(r.ctrls[0].Pseudonym(persons[len(persons)/2]))
			t.Logf("chaos seed=%d partition=%s victim=%s", fi.Seed(), window, victim)
			stormPublish(t, sc, r, persons, func() {
				fi.PartitionHosts(window, strings.TrimPrefix(r.servers[victim].URL, "http://"))
			})
			assertClusterInvariants(t, r, persons)
			if fi.Injected()["partition"] == 0 {
				t.Error("the partition never bit — storm finished before the window opened")
			}
		})
	}
}
