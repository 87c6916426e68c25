// Replication role of the controller: a read replica applies a
// primary's WAL stream into the same stores a primary writes, serves
// index inquiries from them, refuses every write flow with a
// not-primary redirect, and can be promoted in place when the primary
// dies. A primary exposes its persistent stores in write-path
// dependency order for the replication shipper and, in quorum mode,
// overlaps the follower fsync barrier with bus fan-out on every
// publish.
package core

import (
	"errors"
	"fmt"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/replication"
	"repro/internal/telemetry"
)

// ErrNotPersistent reports replication wiring on an in-memory
// controller — WAL shipping needs WALs.
var ErrNotPersistent = errors.New("core: replication requires a data directory")

// IsReplica reports whether this controller currently runs as a read
// replica (refusing writes): the role is the attached replication
// node's, and a controller with none is a primary.
func (c *Controller) IsReplica() bool {
	n := c.repl.Load()
	return n != nil && n.IsReplica()
}

// notPrimary builds the redirect fault a replica answers write flows
// with. Under a shard map it names this shard and the map version so the
// client can re-resolve the primary; unsharded replicas answer the
// zero-valued hint.
func (c *Controller) notPrimary() error {
	e := &cluster.NotPrimaryError{}
	if c.shard != nil {
		e.Shard = c.shard.id
		if m := c.reg.ShardMap(); m != nil {
			e.Version = m.Version()
		}
	}
	return e
}

// auditRead appends a read-flow audit record unless this controller is
// a read replica: a replica's audit store is a byte-identical prefix of
// the primary's chain, so a local append would fork it (and be
// clobbered by the next applied segment). Replica-served reads remain
// observable through css_index_inquiries_total. A permitted read whose
// record fails to append returns the error and answers nothing.
func (c *Controller) auditRead(r audit.Record) error {
	if c.IsReplica() {
		return nil
	}
	if _, err := c.aud.Append(r); err != nil {
		return fmt.Errorf("core: audit index inquiry: %w", err)
	}
	return nil
}

// ReplStores returns the controller's persistent stores in write-path
// dependency order — the exact slice both ends of a replication link
// must be configured with. Only a controller with a DataDir has WALs to
// ship.
func (c *Controller) ReplStores() ([]replication.NamedStore, error) {
	if len(c.replStores) == 0 {
		return nil, ErrNotPersistent
	}
	out := make([]replication.NamedStore, len(c.replStores))
	copy(out, c.replStores)
	return out, nil
}

// AttachReplication hands the controller the replication node that
// holds its role: while the node is a replica every write flow answers
// the not-primary redirect, and in quorum mode every accepted publish
// waits for the node's follower fsync barrier (overlapped with bus
// fan-out, like the group-commit barrier it joins).
func (c *Controller) AttachReplication(n *replication.Node) {
	c.repl.Store(n)
}

// OnReplicatedApply is the replication node's OnApply callback: it
// keeps a replica's derived in-memory state current as replicated
// segments land — consent directives, the audit chain head, and the
// catalog and policy sets are all rebuilt from the stores the stream
// just wrote. idmap and index reads go straight to their stores, so
// they need no refresh.
func (c *Controller) OnReplicatedApply(storeName string) {
	var err error
	switch storeName {
	case "consent":
		err = c.con.Reload()
	case "audit":
		err = c.aud.Recover()
	case "catalog", "policies":
		err = c.reload()
	}
	if err != nil {
		telemetry.Logger().Error("repl: refresh after apply failed",
			"store", storeName, "err", err)
	}
}

// Promote readies a read replica for the primary role: the audit chain
// head and every derived in-memory view are recovered from the
// replicated stores. It is the replication node's Promote step — the
// node fences the new epoch first and flips the role (opening the write
// flows) once this returns; a deposed primary still streaming at a
// lower epoch is fenced by the followers.
func (c *Controller) Promote() error {
	if !c.IsReplica() {
		return replication.ErrNotReplica
	}
	if err := c.aud.Recover(); err != nil {
		return err
	}
	if err := c.con.Reload(); err != nil {
		return err
	}
	return c.reload()
}
