package replication

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// walCRC is the whole-log CRC of one store — byte-identity witness.
func walCRC(t *testing.T, ns NamedStore) uint32 {
	t.Helper()
	crc, err := ns.Store.CRCWAL(ns.Store.WALGen(), 0, ns.Store.WALOffset())
	if err != nil {
		t.Fatalf("%s crc: %v", ns.Name, err)
	}
	return crc
}

// TestRejoinTruncatesDivergedPrimary is the deposed-primary round trip:
// the old primary keeps writing after its last shipped frame (an
// unreplicated old-epoch suffix), the follower is promoted and takes
// new writes, and when the deposed node reconnects as a follower the
// new primary locates the divergence, orders a truncate back to the
// common prefix, and re-ships until the logs are byte-identical.
func TestRejoinTruncatesDivergedPrimary(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))

	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pri.AddFollower(fol.Addr())
	for i := 0; i < 10; i++ {
		ps[0].Store.Put(fmt.Sprintf("id-%03d", i), []byte("shared"))
		ps[2].Store.Put(fmt.Sprintf("a-%03d", i), []byte("audit"))
	}
	waitCaughtUp(t, ps, fs, 5*time.Second)

	// The primary "crashes": shipping stops, but the process wrote a
	// little more that never reached the follower.
	pri.Close()
	ps[0].Store.Put("rogue-id", []byte("unreplicated"))
	ps[2].Store.Put("rogue-audit", []byte("unreplicated"))

	// Failover: the follower becomes the primary at the next epoch and
	// takes new writes, so the histories genuinely diverge.
	fol.Close()
	newPri, err := NewPrimary(PrimaryConfig{Stores: fs, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer newPri.Close()
	fs[0].Store.Put("post-failover", []byte("new-history"))
	fs[2].Store.Put("post-failover-audit", []byte("new-history"))

	// The deposed primary restarts as a follower at its old epoch and
	// rejoins.
	rejoin, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rejoin.Close()
	newPri.AddFollower(rejoin.Addr())

	waitCaughtUp(t, fs, ps, 5*time.Second)
	for i := range fs {
		if got, want := walCRC(t, ps[i]), walCRC(t, fs[i]); got != want {
			t.Fatalf("%s logs differ after rejoin: %08x vs %08x", fs[i].Name, got, want)
		}
	}
	if _, ok := get(t, ps, "idmap", "rogue-id"); ok {
		t.Fatal("unreplicated old-epoch suffix survived the rejoin")
	}
	if v, ok := get(t, ps, "idmap", "post-failover"); !ok || v != "new-history" {
		t.Fatalf("rejoined node missing new history: %q %v", v, ok)
	}
	if v, ok := get(t, ps, "idmap", "id-007"); !ok || v != "shared" {
		t.Fatalf("rejoined node lost the common prefix: %q %v", v, ok)
	}
	if rejoin.Epoch() != 2 {
		t.Fatalf("rejoined node at epoch %d, want 2", rejoin.Epoch())
	}
}

// TestGracefulDrainCheckpointsOffsets is the satellite-2 regression: a
// follower closed gracefully must fsync its applied offsets, so a
// reopened store resumes from exactly where replication stopped instead
// of re-requesting durably applied frames.
func TestGracefulDrainCheckpointsOffsets(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fdir := filepath.Join(dir, "f")
	fs := openStores(t, fdir)

	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(fol.Addr())
	for i := 0; i < 25; i++ {
		ps[0].Store.Put(fmt.Sprintf("k-%03d", i), []byte("v"))
	}
	waitCaughtUp(t, ps, fs, 5*time.Second)

	// Graceful drain: Close must leave the durable checkpoint equal to
	// the applied offset on every store.
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ns := range fs {
		if synced, off := ns.Store.WALSynced(), ns.Store.WALOffset(); synced != off {
			t.Fatalf("%s: synced %d != applied %d after graceful drain", ns.Name, synced, off)
		}
	}

	// Crash-restart: reopen the data directory; the announced cursor
	// must resume at the applied offset (nothing is re-requested).
	wantOffset := fs[0].Store.WALOffset()
	for _, ns := range fs {
		ns.Store.Close()
	}
	re, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: openStores(t, fdir), Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Offsets()["idmap"]; got != wantOffset {
		t.Fatalf("restarted follower announces idmap offset %d, want %d", got, wantOffset)
	}
}

// TestCampaignVoting covers the epoch-fencing election edge cases at
// the wire level: a deposed primary campaigning with its old epoch,
// simultaneous candidates at equal epochs, a candidate with stale
// cursors, and a standalone follower (no Node behind it) must all lose
// deterministically.
func TestCampaignVoting(t *testing.T) {
	newVoter := func(t *testing.T, epoch uint64, seedKeys int) *Node {
		t.Helper()
		n := testNode(t, t.TempDir(), nil)
		for i := 0; i < seedKeys; i++ {
			n.cfg.Stores[0].Store.Put(fmt.Sprintf("seed-%03d", i), []byte("x"))
		}
		if _, err := n.epoch.Raise(epoch); err != nil {
			t.Fatal(err)
		}
		return n
	}
	ctx := context.Background()
	caughtUp := func(n *Node) map[string]int64 { return n.follower.Offsets() }

	t.Run("deposed primary with old epoch loses", func(t *testing.T) {
		voter := newVoter(t, 5, 0)
		for _, epoch := range []uint64{4, 5} {
			granted, voterEpoch, err := Campaign(ctx, nil, voter.Addr(), epoch, caughtUp(voter))
			if err != nil {
				t.Fatal(err)
			}
			if granted {
				t.Fatalf("voter at epoch 5 granted epoch %d", epoch)
			}
			if voterEpoch != 5 {
				t.Fatalf("voter reports epoch %d, want 5", voterEpoch)
			}
		}
		if granted, _, err := Campaign(ctx, nil, voter.Addr(), 6, caughtUp(voter)); err != nil || !granted {
			t.Fatalf("epoch 6 campaign = %v, %v; want granted", granted, err)
		}
	})

	t.Run("simultaneous candidates at equal epochs get one grant", func(t *testing.T) {
		voter := newVoter(t, 1, 0)
		const candidates = 4
		var granted atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < candidates; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, _, err := Campaign(ctx, nil, voter.Addr(), 2, caughtUp(voter))
				if err != nil {
					t.Error(err)
					return
				}
				if g {
					granted.Add(1)
				}
			}()
		}
		wg.Wait()
		if granted.Load() != 1 {
			t.Fatalf("%d grants for epoch 2, want exactly 1", granted.Load())
		}
		if e := voter.Status().Epoch; e != 2 {
			t.Fatalf("voter epoch %d after granting 2, want 2", e)
		}
	})

	t.Run("stale candidate cursors are denied", func(t *testing.T) {
		voter := newVoter(t, 1, 10)
		stale := map[string]int64{"idmap": 0, "index": 0, "audit": 0}
		granted, _, err := Campaign(ctx, nil, voter.Addr(), 2, stale)
		if err != nil {
			t.Fatal(err)
		}
		if granted {
			t.Fatal("voter granted a candidate whose log is behind its own")
		}
		if e := voter.Status().Epoch; e != 1 {
			t.Fatalf("denied campaign raised voter epoch to %d", e)
		}
		// The same claim with caught-up cursors wins.
		if granted, _, err := Campaign(ctx, nil, voter.Addr(), 2, caughtUp(voter)); err != nil || !granted {
			t.Fatalf("caught-up campaign = %v, %v; want granted", granted, err)
		}
	})

	t.Run("standalone follower denies everything", func(t *testing.T) {
		fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: openStores(t, t.TempDir()), Epoch: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer fol.Close()
		if granted, _, err := Campaign(ctx, nil, fol.Addr(), 99, fol.Offsets()); err != nil || granted {
			t.Fatalf("standalone follower granted = %v, %v; want deny", granted, err)
		}
		if fol.Epoch() != 1 {
			t.Fatalf("denied campaign raised voter epoch to %d", fol.Epoch())
		}
	})
}
