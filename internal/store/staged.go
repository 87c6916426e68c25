package store

import "errors"

// Commit is the durability barrier returned by StageApply: the staged
// mutations are already visible in memory and appended to the WAL, but
// the fsync that makes them crash-durable may still be outstanding. Wait
// blocks until the WAL is synced at least up to the staged frame.
//
// This splits group commit in two so callers can overlap the fsync with
// other work (the controller runs bus fan-out while the index/audit
// frame syncs) and still enforce ordering: ack only after Wait returns.
// The zero Commit is valid and already durable (in-memory stores and
// stores without SyncEvery have no fsync on the write path).
type Commit struct {
	lg     *wal
	target int64
}

// Wait blocks until every byte of the staged frame is fsynced, sharing
// the sync with any concurrent writer that got there first (group
// commit). It is a no-op when nothing is pending.
func (c Commit) Wait() error { return syncIfNeeded(c.lg, c.target) }

// Pending reports whether an fsync barrier is still outstanding. Callers
// use it to decide whether kicking the sync early (in a helper
// goroutine) is worth anything.
func (c Commit) Pending() bool {
	return c.lg != nil && c.lg.synced.Load() < c.target
}

// StagePut is Put with the commit barrier made explicit. The value is
// copied into the WAL (or a memory store's memtable); the caller may
// reuse its slice. The returned
// Commit's Wait is the durability barrier. Hot single-key writers (the
// audit chain) use this to overlap the fsync with downstream work.
func (s *Store) StagePut(key string, value []byte) (Commit, error) {
	if key == "" {
		return Commit{}, errors.New("store: empty key")
	}
	return s.commit(&walRecord{op: opPut, key: key, value: value}, nil)
}

// StageApply is Apply with the commit barrier made explicit: it appends
// the batch as one checksummed WAL frame and applies it to memory under
// the store lock, but returns before fsyncing. The returned Commit's
// Wait is the durability barrier the caller must reach before acking
// anything that depends on the batch.
//
// Crash semantics are unchanged from Apply: the frame replays
// all-or-nothing, and a crash between StageApply and Wait may lose the
// whole frame — which is why acks must wait.
func (s *Store) StageApply(b *Batch) (Commit, error) {
	if b == nil || len(b.ops) == 0 {
		return Commit{}, nil
	}
	for _, op := range b.ops {
		if op.key == "" {
			return Commit{}, errors.New("store: empty key in batch")
		}
	}
	return s.commit(nil, b.ops)
}
