package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Replication support: a primary's WAL is shipped to followers as the
// raw checksummed records it already writes, identified by (generation,
// byte offset). The follower appends the same bytes to its own log and
// applies the mutations to memory, so its WAL stays a byte-identical
// prefix of the primary's — catch-up after a reconnect is just "resume
// from my offset". The one operation that rewrites history, TruncateWAL,
// would silently invalidate every shipped offset, so it bumps a
// generation counter and readers holding the old generation get
// ErrWALRotated instead of garbage.

// ErrWALRotated reports that the WAL file was rewritten (truncated)
// since the reader captured its generation, invalidating byte offsets.
var ErrWALRotated = errors.New("store: wal rotated under replication reader")

// ErrNoWAL reports a replication operation on an in-memory store.
var ErrNoWAL = errors.New("store: in-memory store has no wal")

// WALOffset returns the current end of the WAL in bytes — everything
// below it is readable via ReadWAL. Offsets always fall on record
// boundaries. In-memory stores report 0.
func (s *Store) WALOffset() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.log == nil {
		return 0
	}
	return s.log.flushed.Load()
}

// WALGen returns the WAL file generation, bumped on every TruncateWAL.
// Pair it with WALOffset when establishing a replication cursor.
func (s *Store) WALGen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// WatchWAL registers ch for edge-triggered append notifications: after
// every durable append a token is sent without blocking (ch should have
// capacity 1; a full channel means a wakeup is already pending, which
// is all an edge trigger needs). The watcher reads ReadWAL until empty
// and then waits on ch again.
func (s *Store) WatchWAL(ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watchers = append(s.watchers, ch)
}

// UnwatchWAL removes a channel registered with WatchWAL.
func (s *Store) UnwatchWAL(ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, w := range s.watchers {
		if w == ch {
			s.watchers = append(s.watchers[:i], s.watchers[i+1:]...)
			return
		}
	}
}

// notifyWatchersLocked wakes registered WAL watchers; the store lock
// must be held. Sends never block: a full channel already carries the
// wakeup.
func (s *Store) notifyWatchersLocked() {
	for _, ch := range s.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// ReadWAL returns raw WAL bytes starting at byte offset from, trimmed
// to whole records and at most maxBytes long (a single record larger
// than maxBytes is returned whole). A nil slice with nil error means
// the reader is caught up. gen must be the generation the cursor was
// established under; a truncation since then yields ErrWALRotated, as
// does an offset beyond the log end.
func (s *Store) ReadWAL(gen uint64, from int64, maxBytes int) ([]byte, error) {
	return s.ReadWALInto(nil, gen, from, maxBytes)
}

// ReadWALInto is ReadWAL reading into buf's storage when it is large
// enough, so a shipper that sends each segment before the next read
// can reuse one buffer; it allocates only to grow past cap(buf).
func (s *Store) ReadWALInto(buf []byte, gen uint64, from int64, maxBytes int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.log == nil {
		return nil, ErrNoWAL
	}
	if gen != s.gen || from > s.log.flushed.Load() {
		return nil, ErrWALRotated
	}
	limit := s.log.flushed.Load()
	if from == limit {
		return nil, nil
	}
	// Read a record header at least, even under a smaller cap.
	n := min(limit-from, max(int64(maxBytes), 8))
	buf = grow(buf, n)
	if _, err := s.log.f.ReadAt(buf, from); err != nil {
		return nil, fmt.Errorf("store: wal read at %d: %w", from, err)
	}
	// Trim to whole records; flushed is always a record boundary, so a
	// short cut can only come from the maxBytes cap.
	var end int64
	for end+8 <= int64(len(buf)) {
		rl := int64(binary.LittleEndian.Uint32(buf[end : end+4]))
		if rl <= 0 || end+8+rl > int64(len(buf)) {
			break
		}
		end += 8 + rl
	}
	if end > 0 {
		return buf[:end], nil
	}
	// First record alone exceeds maxBytes: return it whole.
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w at offset %d: record overruns flushed boundary", ErrCorrupt, from)
	}
	rl := int64(binary.LittleEndian.Uint32(buf[0:4]))
	if rl <= 0 || from+8+rl > limit {
		return nil, fmt.Errorf("%w at offset %d: record overruns flushed boundary", ErrCorrupt, from)
	}
	buf = grow(buf, 8+rl)
	if _, err := s.log.f.ReadAt(buf, from); err != nil {
		return nil, fmt.Errorf("store: wal read at %d: %w", from, err)
	}
	return buf, nil
}

// grow returns buf resliced to n bytes, or a new slice when buf is
// too small.
func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// ApplyWALSegment applies a replicated segment — whole records read by
// ReadWAL from a primary's log at the same offset — to this store: the
// raw bytes are appended to the local WAL verbatim and the decoded
// mutations applied to memory, keeping the local log a byte-identical
// prefix of the primary's. from must equal the current WAL offset
// (contiguity); every record's checksum is verified before anything is
// applied, and a failure rejects the whole segment with ErrCorrupt.
// Returns the new WAL offset.
func (s *Store) ApplyWALSegment(from int64, seg []byte) (int64, error) {
	if len(seg) == 0 {
		return s.WALOffset(), nil
	}
	// at is each mutation's offset in seg until the lock confirms where
	// seg lands in the log.
	type mut struct {
		r  walRecord
		at int64
	}
	var muts []mut
	off := 0
	for off < len(seg) {
		if off+8 > len(seg) {
			return 0, fmt.Errorf("%w: truncated segment header", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint32(seg[off : off+4]))
		want := binary.LittleEndian.Uint32(seg[off+4 : off+8])
		if n <= 0 || off+8+n > len(seg) {
			return 0, fmt.Errorf("%w: segment record overruns segment", ErrCorrupt)
		}
		payload := seg[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != want {
			return 0, fmt.Errorf("%w: replicated record checksum at segment offset %d", ErrCorrupt, off)
		}
		if err := replayPayload(payload, int64(off+8), func(r walRecord, at int64) error {
			muts = append(muts, mut{r, at})
			return nil
		}); err != nil {
			return 0, err
		}
		off += 8 + n
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.log == nil {
		return 0, ErrNoWAL
	}
	if from != s.log.size {
		return 0, fmt.Errorf("store: wal apply at offset %d, log is at %d", from, s.log.size)
	}
	if err := s.log.write(seg); err != nil {
		return 0, err
	}
	for _, m := range muts {
		s.applyLocked(m.r, from+m.at)
	}
	s.notifyWatchersLocked()
	return s.log.size, nil
}

// WALSynced returns the number of WAL bytes known durable (fsynced) —
// the follower's crash-safe applied-offset checkpoint. Always ≤
// WALOffset; in-memory stores report 0.
func (s *Store) WALSynced() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.log == nil {
		return 0
	}
	synced := s.log.synced.Load()
	if flushed := s.log.flushed.Load(); synced > flushed {
		// close() parks synced at MaxInt64; never report past the log end.
		synced = flushed
	}
	return synced
}

// CRCWAL returns the CRC-32 (IEEE) of the raw WAL bytes [from, to) —
// the cheap whole-prefix comparison a rejoining node's handshake runs
// before falling back to the record-by-record digest walk. Offsets need
// not be record boundaries (the CRC is over raw bytes), but to must not
// exceed the flushed end.
func (s *Store) CRCWAL(gen uint64, from, to int64) (uint32, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.log == nil {
		return 0, ErrNoWAL
	}
	if gen != s.gen || from < 0 || to < from || to > s.log.flushed.Load() {
		return 0, ErrWALRotated
	}
	crc := uint32(0)
	buf := make([]byte, 256<<10)
	for off := from; off < to; {
		n := to - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if _, err := s.log.f.ReadAt(buf[:n], off); err != nil {
			return 0, fmt.Errorf("store: wal crc read at %d: %w", off, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		off += n
	}
	return crc, nil
}

// WALRecordDigest identifies one WAL record by the byte offset just
// past it and the CRC-32 of its framed bytes (header + payload). Two
// logs whose digest sequences agree through offset X are byte-identical
// through X.
type WALRecordDigest struct {
	End int64
	CRC uint32
}

// DigestWAL scans whole records starting at byte offset from (a record
// boundary), returning at most max digests. A short or empty result
// means the scan reached the flushed end of the log. The new primary
// walks a rejoining node's digests against its own to locate the first
// divergent record — the same record-by-record comparison `css-audit
// -compare` runs over audit chains.
func (s *Store) DigestWAL(gen uint64, from int64, max int) ([]WALRecordDigest, error) {
	if max <= 0 {
		return nil, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.log == nil {
		return nil, ErrNoWAL
	}
	limit := s.log.flushed.Load()
	if gen != s.gen || from < 0 || from > limit {
		return nil, ErrWALRotated
	}
	var out []WALRecordDigest
	header := make([]byte, 8)
	var payload []byte
	for off := from; off < limit && len(out) < max; {
		if _, err := s.log.f.ReadAt(header, off); err != nil {
			return nil, fmt.Errorf("store: wal digest read at %d: %w", off, err)
		}
		n := int64(binary.LittleEndian.Uint32(header[0:4]))
		if n <= 0 || off+8+n > limit {
			return nil, fmt.Errorf("%w at offset %d: record overruns flushed boundary", ErrCorrupt, off)
		}
		payload = sizedBuf(payload, int(n))
		if _, err := s.log.f.ReadAt(payload, off+8); err != nil {
			return nil, fmt.Errorf("store: wal digest read at %d: %w", off+8, err)
		}
		crc := crc32.Update(crc32.ChecksumIEEE(header), crc32.IEEETable, payload)
		off += 8 + n
		out = append(out, WALRecordDigest{End: off, CRC: crc})
	}
	return out, nil
}

// TruncateWAL discards every WAL byte at or beyond offset — a record
// boundary — and rebuilds the in-memory state from the surviving
// prefix. This is the rejoin path for a deposed primary: the suffix it
// wrote under its old epoch was never replicated, the new primary's
// history has diverged from it, and the only safe move is to cut back
// to the common prefix and re-follow. The truncation is fsynced before
// returning and the WAL generation is bumped so replication cursors
// established before the cut fail with ErrWALRotated instead of reading
// rewritten history.
func (s *Store) TruncateWAL(offset int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.log == nil {
		return ErrNoWAL
	}
	if offset < 0 || offset > s.log.size {
		return fmt.Errorf("store: truncate wal to %d, log is at %d", offset, s.log.size)
	}
	if offset == s.log.size {
		return nil
	}
	if err := s.log.close(); err != nil {
		s.closed = true
		return fmt.Errorf("store: truncate wal: close: %w", err)
	}
	s.log = nil
	if err := os.Truncate(s.path, offset); err != nil {
		s.closed = true
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	// Rebuild memory from the surviving prefix, exactly like Open.
	s.table.free()
	s.table = newMemtable(false)
	validLen, err := s.replay()
	if err != nil {
		s.closed = true
		return fmt.Errorf("store: truncate wal: replay: %w", err)
	}
	if validLen != offset {
		s.closed = true
		return fmt.Errorf("%w: truncate target %d is not a record boundary (replay stops at %d)", ErrCorrupt, offset, validLen)
	}
	log, err := openWAL(s.path, s.opts.SyncEvery)
	if err != nil {
		s.closed = true
		return err
	}
	if err := log.f.Sync(); err != nil {
		log.close()
		s.closed = true
		return fmt.Errorf("store: truncate wal: sync: %w", err)
	}
	log.synced.Store(offset)
	s.log = log
	s.gen++
	return nil
}

// SyncWAL fsyncs the log through its current end — the follower's
// durability point before acknowledging replicated segments. Uses the
// same group commit as the write path, so concurrent callers share one
// fsync.
func (s *Store) SyncWAL() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	lg := s.log
	var target int64
	if lg != nil {
		target = lg.flushed.Load()
	}
	s.mu.RUnlock()
	if lg == nil {
		return nil
	}
	return lg.syncTo(target)
}
