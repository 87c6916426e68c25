package store

// Batch accumulates puts and deletes to be applied atomically by
// Store.Apply: one lock acquisition and one checksummed WAL frame for
// the whole set, so a crash can never persist a prefix of it. A Batch is
// not safe for concurrent use; Reset makes it reusable.
type Batch struct {
	ops []walRecord
}

// Put queues storing value under key. The value is copied, so the caller
// may reuse its slice immediately.
func (b *Batch) Put(key string, value []byte) {
	b.ops = append(b.ops, walRecord{op: opPut, key: key, value: append([]byte(nil), value...)})
}

// PutOwned queues storing value under key without copying it at queue
// time: the batch holds the caller's slice until it is applied, when the
// value is copied into the WAL frame (or a memory store's memtable). The
// caller may reuse the slice once Apply or StageApply has returned. Hot
// paths that build the value per call use this to skip the copy Put
// makes.
func (b *Batch) PutOwned(key string, value []byte) {
	b.ops = append(b.ops, walRecord{op: opPut, key: key, value: value})
}

// Delete queues removing key. Deleting an absent key is a no-op at apply
// time, mirroring Store.Delete.
func (b *Batch) Delete(key string) {
	b.ops = append(b.ops, walRecord{op: opDel, key: key})
}

// Len returns the number of queued mutations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch, retaining its capacity for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Apply executes the batch atomically: every mutation becomes visible
// together, backed by a single WAL frame that replays all-or-nothing
// after a crash. Mutations apply in order, so a later Put of a key wins
// over an earlier one in the same batch. An empty batch is a no-op.
//
// Apply is StageApply followed immediately by the commit barrier; use
// StageApply directly to overlap the fsync with other work.
func (s *Store) Apply(b *Batch) error {
	return wait(s.StageApply(b))
}
