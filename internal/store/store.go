package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Options configure a Store.
type Options struct {
	// SyncEvery forces an fsync after every write. Slower but durable
	// against power loss, not just process crash. Default false.
	SyncEvery bool
}

// Store is a durable, ordered key-value store. All methods are safe for
// concurrent use. Keys are arbitrary non-empty strings ordered
// lexicographically; values are opaque byte slices.
//
// Durability model: every mutation is appended to a write-ahead log
// before the in-memory index is updated; Open replays the log, tolerating
// (and truncating) a torn tail record from a crash mid-append. The
// in-memory index holds keys and where each value lies in the log, not
// the values: a read fetches its value from the file.
type Store struct {
	mu     sync.RWMutex
	table  *memtable
	log    *wal
	path   string
	opts   Options
	closed bool
	// gen counts WAL file rewrites (TruncateWAL); replication cursors
	// carry it so a rewrite invalidates their byte offsets loudly.
	gen uint64
	// watchers receive non-blocking edge-triggered tokens after every
	// append (see WatchWAL).
	watchers []chan struct{}
}

// Open opens (creating if necessary) the store persisted at path.
func Open(path string, opts Options) (*Store, error) {
	if path == "" {
		return nil, errors.New("store: empty path")
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, fmt.Errorf("store: mkdir: %w", err)
		}
	}
	s := &Store{table: newMemtable(false), path: path, opts: opts}
	validLen, err := s.replay()
	if err != nil {
		return nil, err
	}
	// Truncate a torn tail so the next append starts on a clean boundary.
	if st, statErr := os.Stat(path); statErr == nil && st.Size() > validLen {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	log, err := openWAL(path, opts.SyncEvery)
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// OpenMemory returns a purely in-memory store (no durability), useful for
// tests and benchmarks that don't exercise recovery. Having no log, it
// keeps its values in the memtable's arena.
func OpenMemory() *Store {
	return &Store{table: newMemtable(true)}
}

// replay rebuilds the in-memory state from the WAL file, returning the
// length of its intact prefix.
func (s *Store) replay() (int64, error) {
	return replayWAL(s.path, func(r walRecord, at int64) error {
		s.applyLocked(r, at)
		return nil
	})
}

// applyLocked applies one mutation, whose encoding starts at byte at of
// the WAL, to the memtable. The memtable copies the key; of the value it
// keeps the WAL offset, or a copy in a memory store.
func (s *Store) applyLocked(r walRecord, at int64) {
	switch r.op {
	case opPut:
		s.table.put(r.key, r.value, at+valueOffset(r))
	case opDel:
		s.table.del(r.key)
	}
}

// commit is the one write path: under the store lock it appends the
// mutation(s) to the WAL — single as one plain record, ops as one atomic
// batch frame — applies them to memory and wakes the WAL watchers. The
// fsync is left to the returned Commit so that
// concurrent writers share it and callers can overlap it with other
// work. Deleting an absent key writes nothing.
func (s *Store) commit(single *walRecord, ops []walRecord) (Commit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Commit{}, ErrClosed
	}
	if single != nil && single.op == opDel && s.table.find(single.key) == nil {
		return Commit{}, nil
	}
	// at follows each mutation's encoding through the frame about to be
	// written: past the record header, and past a batch's op and count.
	var at int64
	if s.log != nil {
		at = s.log.size + 8
		var err error
		if single != nil {
			err = s.log.append(*single)
		} else {
			at += 5
			err = s.log.appendBatch(ops)
		}
		if err != nil {
			return Commit{}, err
		}
	}
	if single != nil {
		s.applyLocked(*single, at)
	}
	for _, r := range ops {
		s.applyLocked(r, at)
		at += int64(opSize(r))
	}
	s.notifyWatchersLocked()
	lg, target := s.syncTargetLocked()
	return Commit{lg: lg, target: target}, nil
}

// wait is the stage-then-Wait tail of the synchronous writers.
func wait(c Commit, err error) error {
	if err != nil {
		return err
	}
	return c.Wait()
}

// Put stores value under key, overwriting any previous value. The value
// is copied into the WAL (or a memory store's memtable), so the caller
// may reuse its slice.
func (s *Store) Put(key string, value []byte) error {
	return wait(s.StagePut(key, value))
}

// syncTargetLocked captures the durability point a SyncEvery writer must
// wait for. The fsync itself happens after the store lock is released so
// that concurrent writers can share one fsync (group commit).
func (s *Store) syncTargetLocked() (*wal, int64) {
	if s.log == nil || !s.opts.SyncEvery {
		return nil, 0
	}
	return s.log, s.log.size
}

func syncIfNeeded(lg *wal, target int64) error {
	if lg == nil {
		return nil
	}
	return lg.syncTo(target)
}

// Get returns the value stored under key; the slice is the caller's. A
// value that cannot be read from the WAL is an error, not an absence.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	var err error
	v, ok := s.tx(&err).Get(key)
	return v, ok, err
}

// Has reports whether key is present. It reads no value.
func (s *Store) Has(key string) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, ErrClosed
	}
	return s.table.find(key) != nil, nil
}

// Delete removes key. Deleting an absent key is not an error.
func (s *Store) Delete(key string) error {
	return wait(s.commit(&walRecord{op: opDel, key: key}, nil))
}

// Len returns the number of live keys.
func (s *Store) Len() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.table.size, nil
}

// AscendPrefix visits, in key order, every (key, value) whose key starts
// with prefix, until fn returns false. The value slice passed to fn is the
// caller's and may be retained.
func (s *Store) AscendPrefix(prefix string, fn func(key string, value []byte) bool) error {
	return s.View(func(tx Tx) error {
		tx.AscendPrefix(prefix, fn)
		return nil
	})
}

// Tx is a read transaction handed to View: every read shares the same
// lock acquisition. Every value it returns is a fresh slice the caller
// owns: a disk store reads it from its WAL, a memory store copies it out
// of the memtable's arena, which is unmapped when the table is rebuilt or
// the store closed. The Tx must not be used outside the View callback.
// A value that cannot be read ends the transaction's reads: that read
// and every later one report nothing, and View returns the error, never
// an absence.
type Tx struct {
	table *memtable
	log   *os.File // the WAL a disk store's value refs point into
	err   *error
}

// tx returns a Tx over the store, recording a read error in *err. The
// read lock must be held.
func (s *Store) tx(err *error) Tx {
	t := Tx{table: s.table, err: err}
	if s.log != nil {
		t.log = s.log.f
	}
	return t
}

// View runs fn under a single read lock. It returns the first value read
// error of the transaction if there was one, else what fn returned.
func (s *Store) View(fn func(tx Tx) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	var rerr error
	err := fn(s.tx(&rerr))
	if rerr != nil {
		return rerr
	}
	return err
}

// value returns node n's value and whether it could be read.
func (t Tx) value(n []byte) ([]byte, bool) {
	if *t.err != nil {
		return nil, false
	}
	v := make([]byte, valueLen(n))
	if t.table.mem {
		copy(v, t.table.value(n))
		return v, true
	}
	if _, err := t.log.ReadAt(v, int64(valueRef(n))); err != nil {
		*t.err = fmt.Errorf("store: read value at wal offset %d: %w", valueRef(n), err)
		return nil, false
	}
	return v, true
}

// Get returns the value stored under key.
func (t Tx) Get(key string) ([]byte, bool) {
	if n := t.table.find(key); n != nil {
		return t.value(n)
	}
	return nil, false
}

// Last returns the greatest key starting with prefix and its value, in
// one search of the table.
func (t Tx) Last(prefix string) (key string, value []byte, ok bool) {
	n := t.table.last(prefix)
	if n == nil {
		return "", nil, false
	}
	if value, ok = t.value(n); !ok {
		return "", nil, false
	}
	return string(nodeKey(n)), value, true
}

// AscendPrefix visits every key starting with prefix in order until fn
// returns false.
func (t Tx) AscendPrefix(prefix string, fn func(key string, value []byte) bool) {
	t.table.walk(prefix, func(n []byte) bool {
		k := nodeKey(n)
		if !hasPrefix(k, prefix) {
			return false
		}
		v, ok := t.value(n)
		return ok && fn(string(k), v)
	})
}

// AscendKeys visits in order every key that starts with prefix and is
// not below from, until fn returns false. It reads no value: a walk that
// needs only keys costs a disk store no I/O.
func (t Tx) AscendKeys(prefix, from string, fn func(key string) bool) {
	t.table.walk(max(prefix, from), func(n []byte) bool {
		k := nodeKey(n)
		return hasPrefix(k, prefix) && fn(string(k))
	})
}

// Close flushes and closes the store and unmaps its memtable. Further
// operations fail with ErrClosed. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.table.free()
	if s.log != nil {
		return s.log.close()
	}
	return nil
}
