package workload

import "repro/internal/core"

// ProvisionCluster provisions every shard of a controller cluster with
// the full scenario roster and the standard policy set. Membership
// state — producers, consumers, event classes, policies — is per-shard
// (only the events index and id map are partitioned by the shard map),
// so every member must carry the complete roster for publishes and
// inquiries to be answerable wherever the shard map routes them.
func ProvisionCluster(ctrls ...*core.Controller) ([]*Platform, error) {
	out := make([]*Platform, 0, len(ctrls))
	for _, c := range ctrls {
		p, err := Provision(c)
		if err != nil {
			return nil, err
		}
		if _, err := p.StandardPolicies(); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
