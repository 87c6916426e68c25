package registry

import "repro/internal/cluster"

// SetShardMap installs (or replaces) the cluster shard map the
// registry serves. Versions must be strictly increasing: installing a
// map whose version is not newer than the current one fails with
// cluster.ErrStaleMap, so a lagging peer can never roll the cluster
// back to an older assignment. The first map installs unconditionally.
func (r *Registry) SetShardMap(m *cluster.Map) error {
	if m == nil {
		return cluster.ErrStaleMap
	}
	for {
		cur := r.shardMap.Load()
		if cur != nil && m.Version() <= cur.Version() {
			if m.Equal(cur) {
				return nil // idempotent re-install of the same map
			}
			return cluster.ErrStaleMap
		}
		if r.shardMap.CompareAndSwap(cur, m) {
			return nil
		}
	}
}

// ShardMap returns the current shard map: the last one SetShardMap
// installed. A controller installs one at boot, a lone controller the
// version-0 map of one shard.
func (r *Registry) ShardMap() *cluster.Map {
	return r.shardMap.Load()
}
