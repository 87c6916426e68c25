// Replication role of the controller: a replica is a standby. It
// applies a primary's WAL stream into the same stores a primary writes,
// keeps its catalog, policy listing and audit chain head current, and
// answers every access and write flow — inquiries included — with a
// not-primary redirect, so every request that is answered is decided
// and logged on the primary's chain. It can be promoted in place when
// the primary dies. A primary exposes its persistent stores in
// write-path dependency order for the replication shipper and, in
// quorum mode, overlaps the follower fsync barrier with bus fan-out on
// every publish.
package core

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/replication"
	"repro/internal/telemetry"
)

// ErrNotPersistent reports replication wiring on an in-memory
// controller — WAL shipping needs WALs.
var ErrNotPersistent = errors.New("core: replication requires a data directory")

// IsReplica reports whether this controller currently runs as a
// replica (refusing every flow): the role is the attached replication
// node's, and a controller with none is a primary.
func (c *Controller) IsReplica() bool {
	n := c.repl.Load()
	return n != nil && n.IsReplica()
}

// notPrimary builds the redirect fault a replica answers every flow
// with. It names this shard and the map version so the client can
// re-resolve the primary; a lone replica names version 0, which no
// client adopts.
func (c *Controller) notPrimary() error {
	return &cluster.NotPrimaryError{Shard: c.shard.id, Version: c.reg.ShardMap().Version()}
}

// gate is the check every access and write flow opens with: a closed
// controller answers ErrClosed, and a replica answers the not-primary
// redirect before it reads, decides or logs anything.
func (c *Controller) gate() error {
	if c.isClosed() {
		return ErrClosed
	}
	if c.IsReplica() {
		return c.notPrimary()
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
// holds its role: while the node is a replica every flow answers the
// not-primary redirect, and in quorum mode every accepted publish
// waits for the node's follower fsync barrier (overlapped with bus
// fan-out, like the group-commit barrier it joins).
func (c *Controller) AttachReplication(n *replication.Node) {
	c.repl.Store(n)
}

// OnReplicatedApply is the replication node's OnApply callback: it
// keeps what a standby still serves current as replicated segments
// land — the audit chain head (/ws/audit, Verify) and the catalog and
// policy listings are rebuilt from the stores the stream just wrote.
// Consent is read by no flow a standby answers; Promote reloads it.
func (c *Controller) OnReplicatedApply(storeName string) {
	var err error
	switch storeName {
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

// Promote readies a replica for the primary role: the audit chain
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
