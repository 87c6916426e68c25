// Cluster membership of the controller: shard identity, publish-path
// ownership enforcement and the ids the shard mints. The shard map is
// fixed at boot; only a failover's AdoptMap replaces it. An unsharded
// controller (the default) carries none of this — c.shard stays nil and
// the publish path pays one nil check.
package core

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
)

// ErrNotClustered reports a cluster operation on an unsharded
// controller.
var ErrNotClustered = errors.New("core: controller is not clustered")

// shardState is the controller's cluster identity.
type shardState struct {
	id    cluster.ShardID
	label string // precomputed id.String() for span attrs
}

// initCluster wires the controller into a shard cluster at
// construction. Called from New when Config.ShardMap is set. The id
// must name a shard of the map: a shard the map leaves out would own
// no keys and redirect every publish, forever.
//
// The shard mints only event ids the map assigns to it, so a detail
// request goes to the one shard an id names. A failover keeps every
// shard's key range, so a promoted replica keeps minting its own ids.
// A data dir holding an id of another shard (written unsharded, or as
// another shard) is refused here: its events would be asked for at a
// shard that does not hold them.
func (c *Controller) initCluster(id cluster.ShardID, m *cluster.Map) error {
	if _, ok := m.Shard(id); !ok {
		return fmt.Errorf("core: shard id %d is not in the shard map", id)
	}
	if err := c.reg.SetShardMap(m); err != nil {
		return err
	}
	foreign, err := c.ids.Restrict(func(gid []byte) bool { return c.reg.ShardMap().OwnerBytes(gid) == id })
	if err != nil {
		return err
	}
	if foreign != "" {
		return fmt.Errorf("core: data dir %q holds event id %s, which the shard map assigns to %s, not to %s: the dir was written unsharded or as another shard",
			c.cfg.DataDir, foreign, m.Owner(string(foreign)), id)
	}
	c.shard = &shardState{id: id, label: id.String()}
	c.met.clusterMapVersion.Set(float64(m.Version()))
	return nil
}

// ShardMap returns the cluster map this controller currently serves,
// or nil when the controller runs unsharded.
func (c *Controller) ShardMap() *cluster.Map { return c.reg.ShardMap() }

// Pseudonym maps a person identifier to the HMAC pseudonym the index
// keys by — the value the shard map hashes. In-process callers (the
// benchmark harness, the smoke suites) hand it to the sharded client
// so publishes route without a discovery redirect; remote producers
// never see it.
func (c *Controller) Pseudonym(personID string) string { return c.idx.Pseudonym(personID) }

// ShardID returns this controller's shard id; ok is false when the
// controller runs unsharded.
func (c *Controller) ShardID() (cluster.ShardID, bool) {
	if c.shard == nil {
		return 0, false
	}
	return c.shard.id, true
}

// shardAdmit enforces pseudonym ownership at the top of a clustered
// publish: a key this shard does not own under the current map answers
// *cluster.WrongShardError naming the owner (the client refreshes its
// map and retries there).
func (c *Controller) shardAdmit(personID string) error {
	m := c.reg.ShardMap()
	if owner := m.Owner(c.idx.Pseudonym(personID)); owner != c.shard.id {
		c.met.clusterWrongShard.Inc()
		return &cluster.WrongShardError{Owner: owner, Version: m.Version()}
	}
	return nil
}

// AdoptMap atomically switches the controller to next, the successor
// map a failover installs. From this instant the shard routes (and
// redirects) by the new assignment.
func (c *Controller) AdoptMap(next *cluster.Map) error {
	if c.shard == nil {
		return ErrNotClustered
	}
	if err := c.reg.SetShardMap(next); err != nil {
		return err
	}
	c.met.clusterMapVersion.Set(float64(next.Version()))
	return nil
}

// IndexLen returns the number of events in this shard's index — the
// exactly-once assertion surface of the chaos and smoke suites.
func (c *Controller) IndexLen() (int, error) { return c.idx.Len() }
