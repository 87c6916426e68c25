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
// (and truncating) a torn tail record from a crash mid-append.
type Store struct {
	mu     sync.RWMutex
	list   *skipList
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
	s := &Store{list: newSkipList(nextSeed()), path: path, opts: opts}
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
// tests and benchmarks that don't exercise recovery.
func OpenMemory() *Store {
	return &Store{list: newSkipList(nextSeed())}
}

// replay rebuilds the in-memory state from the WAL file, returning the
// length of its intact prefix.
func (s *Store) replay() (int64, error) {
	return replayWAL(s.path, func(r walRecord) error {
		s.applyLocked(r)
		return nil
	})
}

// applyLocked applies one mutation to the memtable, which copies the
// key and value it keeps.
func (s *Store) applyLocked(r walRecord) {
	switch r.op {
	case opPut:
		s.list.put(r.key, r.value)
	case opDel:
		s.list.del(r.key)
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
	if single != nil && single.op == opDel {
		if _, ok := s.list.get(single.key); !ok {
			return Commit{}, nil
		}
	}
	if s.log != nil {
		var err error
		if single != nil {
			err = s.log.append(*single)
		} else {
			err = s.log.appendBatch(ops)
		}
		if err != nil {
			return Commit{}, err
		}
	}
	if single != nil {
		s.applyLocked(*single)
	}
	for _, r := range ops {
		s.applyLocked(r)
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
// is copied into the memtable, so the caller may reuse its slice.
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

// Get returns a copy of the value stored under key.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.list.get(key)
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Has reports whether key is present.
func (s *Store) Has(key string) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, ErrClosed
	}
	_, ok := s.list.get(key)
	return ok, nil
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
	return s.list.size, nil
}

// AscendPrefix visits, in key order, every (key, value) whose key starts
// with prefix, until fn returns false. The value slice passed to fn is a
// copy and may be retained.
func (s *Store) AscendPrefix(prefix string, fn func(key string, value []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.list.ascendPrefix(prefix, func(k string, v []byte) bool {
		return fn(k, append([]byte(nil), v...))
	})
	return nil
}

// AscendRange visits keys in [from, to) in order until fn returns false.
// An empty `to` means "to the end".
func (s *Store) AscendRange(from, to string, fn func(key string, value []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.list.ascend(from, func(k string, v []byte) bool {
		if to != "" && k >= to {
			return false
		}
		return fn(k, append([]byte(nil), v...))
	})
	return nil
}

// Tx is a read transaction handed to View: every read shares the same
// lock acquisition and returns the store's internal value slices without
// copying. Callers must treat the slices as read-only and must not use
// the Tx outside the View callback. Intended for internal iteration-heavy
// paths (index scans, audit verification); external callers wanting
// retainable values use Get/AscendPrefix/AscendRange.
type Tx struct {
	list *skipList
}

// View runs fn under a single read lock with no-copy access to the data.
func (s *Store) View(fn func(tx Tx) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return fn(Tx{list: s.list})
}

// Get returns the value stored under key without copying it.
func (t Tx) Get(key string) ([]byte, bool) {
	return t.list.get(key)
}

// Last returns the greatest key starting with prefix and its value,
// without copying it, in one descent of the list.
func (t Tx) Last(prefix string) (key string, value []byte, ok bool) {
	return t.list.last(prefix)
}

// AscendRange visits keys in [from, to) in order until fn returns false,
// passing the internal value slices. An empty `to` means "to the end".
func (t Tx) AscendRange(from, to string, fn func(key string, value []byte) bool) {
	t.list.ascend(from, func(k string, v []byte) bool {
		if to != "" && k >= to {
			return false
		}
		return fn(k, v)
	})
}

// AscendPrefix visits every key starting with prefix in order until fn
// returns false, passing the internal value slices.
func (t Tx) AscendPrefix(prefix string, fn func(key string, value []byte) bool) {
	t.list.ascendPrefix(prefix, fn)
}

// Close flushes and closes the store. Further operations fail with
// ErrClosed. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.log != nil {
		return s.log.close()
	}
	return nil
}
