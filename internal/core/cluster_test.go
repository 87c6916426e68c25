package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/schema"
)

var clusterKey = bytes.Repeat([]byte{9}, crypto.KeySize)

// threeShards is a 3-shard map; the addresses are never dialled.
func threeShards(t *testing.T) *cluster.Map {
	t.Helper()
	m, err := cluster.NewMap(1, 0, []cluster.ShardInfo{
		{ID: 0, Addr: "http://s0"}, {ID: 1, Addr: "http://s1"}, {ID: 2, Addr: "http://s2"}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ownedPerson returns the i-th person id whose pseudonym the map
// assigns to shard id.
func ownedPerson(t *testing.T, c *Controller, m *cluster.Map, id cluster.ShardID, i int) string {
	t.Helper()
	for n := 0; n < 10000; n++ {
		p := fmt.Sprintf("PRS-%05d", n)
		if m.Owner(c.Pseudonym(p)) != id {
			continue
		}
		if i == 0 {
			return p
		}
		i--
	}
	t.Fatalf("no person %d owned by %s", i, id)
	return ""
}

// clusterPublish registers the hospital and publishes n events of
// persons shard owns (any person when m is nil), returning their ids.
func clusterPublish(t *testing.T, c *Controller, m *cluster.Map, shard cluster.ShardID, n int) []event.GlobalID {
	t.Helper()
	if err := c.RegisterProducer("hospital", "H"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	gids := make([]event.GlobalID, n)
	for i := range gids {
		person := fmt.Sprintf("PRS-%05d", i)
		if m != nil {
			person = ownedPerson(t, c, m, shard, i)
		}
		gid, err := c.Publish(&event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("s-%d-%05d", shard, i)), Class: schema.ClassBloodTest,
			PersonID: person, OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC), Producer: "hospital",
		})
		if err != nil {
			t.Fatal(err)
		}
		gids[i] = gid
	}
	return gids
}

// TestClusteredShardMintsOwnedIDs: every id a clustered controller
// assigns is one its map assigns to it, so the id alone routes a
// detail request.
func TestClusteredShardMintsOwnedIDs(t *testing.T) {
	m := threeShards(t)
	for _, self := range []cluster.ShardID{0, 1, 2} {
		c, err := New(Config{DefaultConsent: true, MasterKey: clusterKey, ShardMap: m, ShardID: self})
		if err != nil {
			t.Fatal(err)
		}
		for _, gid := range clusterPublish(t, c, m, self, 100) {
			if owner := m.Owner(string(gid)); owner != self {
				t.Fatalf("%s minted %s, which the map assigns to %s", self, gid, owner)
			}
		}
		c.Close()
	}
}

// TestForeignIDsRefusedAtBoot: a dir a lone controller wrote holds ids
// the map assigns to every shard, so no shard of the map boots on it,
// and the error names the dir. The dir still boots as a lone controller
// (shard 0 of a version-0 one-shard map), and a dir a shard wrote itself
// boots as that shard again.
func TestForeignIDsRefusedAtBoot(t *testing.T) {
	m := threeShards(t)
	dir := t.TempDir()
	c, err := New(Config{DataDir: dir, DefaultConsent: true, MasterKey: clusterKey})
	if err != nil {
		t.Fatal(err)
	}
	clusterPublish(t, c, nil, 0, 20)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, self := range []cluster.ShardID{0, 1, 2} {
		c, err := New(Config{DataDir: dir, MasterKey: clusterKey, ShardMap: m, ShardID: self})
		if err == nil {
			c.Close()
			t.Fatalf("a lone controller's dir booted as %s", self)
		}
		if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "evt-") {
			t.Errorf("boot error %q names neither the dir nor the foreign id", err)
		}
	}
	c, err = New(Config{DataDir: dir, MasterKey: clusterKey})
	if err != nil {
		t.Fatalf("the dir no longer boots as a lone controller: %v", err)
	}
	if lone := c.ShardMap(); c.ShardID() != 0 || lone.Version() != 0 || len(lone.Shards()) != 1 {
		t.Errorf("a lone controller is %s of map v%d with %d shards, want shard-0 of v0 with 1",
			c.ShardID(), lone.Version(), len(lone.Shards()))
	}
	c.Close()

	own := t.TempDir()
	c, err = New(Config{DataDir: own, DefaultConsent: true, MasterKey: clusterKey, ShardMap: m, ShardID: 2})
	if err != nil {
		t.Fatal(err)
	}
	clusterPublish(t, c, m, 2, 20)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = New(Config{DataDir: own, MasterKey: clusterKey, ShardMap: m, ShardID: 2})
	if err != nil {
		t.Fatalf("a shard's own dir no longer boots: %v", err)
	}
	c.Close()
}

// TestBootRefusesMapsClientsCannotFollow: a controller refuses a shard
// id its map leaves out, and a map of several shards at version 0,
// which a relay seeded with a lone controller's version-0 map would
// never adopt. A one-shard map at version 0 is a lone controller's.
func TestBootRefusesMapsClientsCannotFollow(t *testing.T) {
	two := []cluster.ShardInfo{{ID: 0, Addr: "http://s0"}, {ID: 1, Addr: "http://s1"}}
	for _, tc := range []struct {
		name    string
		version uint64
		shards  []cluster.ShardInfo
		self    cluster.ShardID
		refused string
	}{
		{"id outside the map", 1, two, 2, "not in the shard map"},
		{"several shards at version 0", 0, two, 0, "version 0"},
		{"one shard at version 0", 0, two[:1], 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := cluster.NewMap(tc.version, 0, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(Config{MasterKey: clusterKey, ShardMap: m, ShardID: tc.self})
			if err == nil {
				c.Close()
			}
			switch {
			case tc.refused == "" && err != nil:
				t.Fatalf("boot refused: %v", err)
			case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
				t.Fatalf("boot error %v, want one naming %q", err, tc.refused)
			}
		})
	}
}
