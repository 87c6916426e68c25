// Cluster membership of the controller: shard identity, publish-path
// ownership enforcement and the ids the shard mints. Every controller
// is a shard: one booted without Config.ShardMap is shard 0 of a
// version-0 one-shard map, which owns every key and every id. The map
// is fixed at boot; only a failover's AdoptMap replaces it.
package core

import (
	"fmt"

	"repro/internal/cluster"
)

// shardState is the controller's cluster identity.
type shardState struct {
	id    cluster.ShardID
	label string // precomputed id.String() for span attrs
}

// loneMap is the map of a controller booted without one: shard 0 of a
// one-shard map at version 0, with no address. A lone controller never
// redirects a publish, and the not-primary fault of a lone replica names
// version 0, which no client adopts over the map it holds, so no client
// ever dials the empty address.
func loneMap() (*cluster.Map, error) {
	return cluster.NewMap(0, 0, []cluster.ShardInfo{{ID: 0}})
}

// initCluster wires the controller into its shard map at construction.
// The id must name a shard of the map: a shard the map leaves out would
// own no keys and redirect every publish, forever.
//
// The shard mints only event ids the map assigns to it, so a detail
// request goes to the one shard an id names. A failover keeps every
// shard's key range, so a promoted replica keeps minting its own ids.
// A data dir holding an id of another shard (written by a lone
// controller, or as another shard) is refused here: its events would
// be asked for at a shard that does not hold them. A one-shard map owns
// every id, so every dir boots as a lone controller.
//
// A map of several shards must have version 1 or later. A relay starts
// from a version-0 one-shard map of the controller it is pointed at and
// adopts only newer maps, so behind a version-0 fleet it would never
// learn the shards its redirects name.
func (c *Controller) initCluster(id cluster.ShardID, m *cluster.Map) error {
	if _, ok := m.Shard(id); !ok {
		return fmt.Errorf("core: shard id %d is not in the shard map", id)
	}
	if len(m.Shards()) > 1 && m.Version() == 0 {
		return fmt.Errorf("core: a map of %d shards at version 0: several shards need version 1 or later, since clients adopt only maps newer than a lone controller's", len(m.Shards()))
	}
	if err := c.reg.SetShardMap(m); err != nil {
		return err
	}
	foreign, err := c.ids.Restrict(func(gid []byte) bool { return c.reg.ShardMap().OwnerBytes(gid) == id })
	if err != nil {
		return err
	}
	if foreign != "" {
		return fmt.Errorf("core: data dir %q holds event id %s, which the shard map assigns to %s, not to %s: the dir was written by a lone controller or as another shard",
			c.cfg.DataDir, foreign, m.Owner(string(foreign)), id)
	}
	c.shard = shardState{id: id, label: id.String()}
	c.met.clusterMapVersion.Set(float64(m.Version()))
	return nil
}

// ShardMap returns the cluster map this controller currently serves.
func (c *Controller) ShardMap() *cluster.Map { return c.reg.ShardMap() }

// Pseudonym maps a person identifier to the HMAC pseudonym the index
// keys by — the value the shard map hashes. In-process callers (the
// benchmark harness, the smoke suites) hand it to the sharded client
// so publishes route without a discovery redirect; remote producers
// never see it.
func (c *Controller) Pseudonym(personID string) string { return c.idx.Pseudonym(personID) }

// ShardID returns this controller's shard id; a lone controller is
// shard 0.
func (c *Controller) ShardID() cluster.ShardID { return c.shard.id }

// shardAdmit enforces pseudonym ownership at the top of a publish and
// returns the person's pseudonym, which the index put reuses.
func (c *Controller) shardAdmit(personID string) (string, error) {
	pseudonym := c.idx.Pseudonym(personID)
	if err := c.owns(pseudonym); err != nil {
		return "", err
	}
	return pseudonym, nil
}

// owns checks that this shard owns key under the current map. A key it
// does not own answers *cluster.WrongShardError naming the owner (the
// client refreshes its map and retries there), counted in
// css_cluster_wrong_shard_total. A lone controller owns every key.
func (c *Controller) owns(key string) error {
	m := c.reg.ShardMap()
	if owner := m.Owner(key); owner != c.shard.id {
		c.met.clusterWrongShard.Inc()
		return &cluster.WrongShardError{Owner: owner, Version: m.Version()}
	}
	return nil
}

// AdoptMap atomically switches the controller to next, the successor
// map a failover installs. From this instant the shard routes (and
// redirects) by the new assignment.
func (c *Controller) AdoptMap(next *cluster.Map) error {
	if err := c.reg.SetShardMap(next); err != nil {
		return err
	}
	c.met.clusterMapVersion.Set(float64(next.Version()))
	return nil
}
