package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// WAL record layout (little endian):
//
//	[4] payload length n
//	[4] CRC-32 (IEEE) of payload
//	[n] payload
//
// payload (single mutation):
//
//	[1] op (opPut | opDel)
//	[4] key length k
//	[k] key bytes
//	[4] value length v   (opPut only)
//	[v] value bytes      (opPut only)
//
// payload (batch frame — N mutations in one atomic record):
//
//	[1] opBatch
//	[4] mutation count
//	followed by the single-mutation encodings back to back
//
// A torn tail (partial record after a crash) is detected by the record
// overrunning the end of the file and truncated away on recovery;
// everything before it replays. Because a batch frame is one checksummed
// record, a crash mid-batch truncates the whole frame: replay applies all
// of its mutations or none.
//
// A record that is *fully present* but fails its checksum is never
// forgiven — not even at the tail. A torn append leaves the file short; a
// complete record with a bad CRC means the bytes changed after they were
// written, and silently truncating it would let a restarted node (or a
// replica catching up from this log) adopt a corrupt prefix as if it were
// the whole history. Replay fails hard with ErrCorrupt instead.

const (
	opPut   byte = 1
	opDel   byte = 2
	opBatch byte = 3
)

// ErrCorrupt reports a WAL record that fails its checksum in the middle
// of the log (not a torn tail).
var ErrCorrupt = errors.New("store: corrupt wal record")

type walRecord struct {
	op    byte
	key   string
	value []byte
}

// opSize returns the encoded size of one mutation.
func opSize(r walRecord) int {
	n := 1 + 4 + len(r.key)
	if r.op == opPut {
		n += 4 + len(r.value)
	}
	return n
}

// valueOffset is where a put's value starts inside its encoded mutation:
// the memtable of a disk store addresses it there, in the WAL file.
func valueOffset(r walRecord) int64 { return int64(1 + 4 + len(r.key) + 4) }

// putOp encodes one mutation at the start of p and returns the bytes
// consumed. p must have room (see opSize).
func putOp(p []byte, r walRecord) int {
	p[0] = r.op
	binary.LittleEndian.PutUint32(p[1:5], uint32(len(r.key)))
	copy(p[5:], r.key)
	if r.op == opPut {
		off := 5 + len(r.key)
		binary.LittleEndian.PutUint32(p[off:off+4], uint32(len(r.value)))
		copy(p[valueOffset(r):], r.value)
	}
	return opSize(r)
}

func encodeRecord(buf []byte, r walRecord) []byte {
	payloadLen := opSize(r)
	buf = sizedBuf(buf, 8+payloadLen)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payloadLen))
	p := buf[8:]
	putOp(p, r)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(p))
	return buf
}

// encodeBatch renders N mutations as one atomic batch frame.
func encodeBatch(buf []byte, ops []walRecord) []byte {
	payloadLen := 1 + 4
	for _, r := range ops {
		payloadLen += opSize(r)
	}
	buf = sizedBuf(buf, 8+payloadLen)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payloadLen))
	p := buf[8:]
	p[0] = opBatch
	binary.LittleEndian.PutUint32(p[1:5], uint32(len(ops)))
	off := 5
	for _, r := range ops {
		off += putOp(p[off:], r)
	}
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(p))
	return buf
}

func sizedBuf(buf []byte, need int) []byte {
	if cap(buf) < need {
		return make([]byte, need)
	}
	return buf[:need]
}

// decodeOp decodes one mutation from the start of p, returning it and the
// bytes consumed. The value aliases p: replay hands the memtable the
// checksummed payload itself, and it keeps no value bytes of a disk
// store.
func decodeOp(p []byte) (walRecord, int, error) {
	if len(p) < 5 {
		return walRecord{}, 0, ErrCorrupt
	}
	r := walRecord{op: p[0]}
	if r.op != opPut && r.op != opDel {
		return walRecord{}, 0, fmt.Errorf("%w: bad op %d", ErrCorrupt, r.op)
	}
	klen := int(binary.LittleEndian.Uint32(p[1:5]))
	if klen < 0 || len(p) < 5+klen {
		return walRecord{}, 0, ErrCorrupt
	}
	r.key = string(p[5 : 5+klen])
	n := 5 + klen
	if r.op == opPut {
		rest := p[n:]
		if len(rest) < 4 {
			return walRecord{}, 0, ErrCorrupt
		}
		vlen := int(binary.LittleEndian.Uint32(rest[:4]))
		if vlen < 0 || len(rest) < 4+vlen {
			return walRecord{}, 0, ErrCorrupt
		}
		r.value = rest[4 : 4+vlen : 4+vlen]
		n += 4 + vlen
	}
	return r, n, nil
}

// replayPayload decodes a checksummed payload — a single mutation or a
// batch frame — invoking fn for each mutation in order, with the offset
// of its encoding: base is the offset of p itself. The values fn
// receives alias p.
func replayPayload(p []byte, base int64, fn func(r walRecord, at int64) error) error {
	if len(p) == 0 {
		return ErrCorrupt
	}
	if p[0] != opBatch {
		r, n, err := decodeOp(p)
		if err != nil {
			return err
		}
		if n != len(p) {
			return ErrCorrupt
		}
		return fn(r, base)
	}
	if len(p) < 5 {
		return ErrCorrupt
	}
	count := int(binary.LittleEndian.Uint32(p[1:5]))
	rest := p[5:]
	at := base + 5
	for i := 0; i < count; i++ {
		r, n, err := decodeOp(rest)
		if err != nil {
			return err
		}
		if err := fn(r, at); err != nil {
			return err
		}
		rest = rest[n:]
		at += int64(n)
	}
	if len(rest) != 0 {
		return ErrCorrupt
	}
	return nil
}

// wal is the append-only log backing a Store.
//
// Durability in SyncEvery mode uses group commit: append (serialized by
// the Store lock) only writes the record to the OS; the caller then
// invokes syncTo *after releasing the Store lock*. Concurrent writers
// pile up on syncMu and the first one's fsync covers every record
// flushed before it started, so N writers share far fewer than N fsyncs.
type wal struct {
	f      *os.File
	sync   bool // fsync-before-acknowledge mode
	size   int64
	encBuf []byte

	syncMu  sync.Mutex
	flushed atomic.Int64 // bytes handed to the OS (set under the Store lock)
	synced  atomic.Int64 // bytes known fsynced (set under syncMu)
}

func openWAL(path string, syncEvery bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat wal: %w", err)
	}
	l := &wal{f: f, sync: syncEvery, size: st.Size()}
	l.flushed.Store(l.size)
	l.synced.Store(l.size)
	return l, nil
}

// append writes one record and flushes it to the OS. In sync mode the
// caller must follow up with syncTo(wal.size) once the Store lock is
// released.
func (l *wal) append(r walRecord) error {
	l.encBuf = encodeRecord(l.encBuf, r)
	return l.write(l.encBuf)
}

// appendBatch writes one atomic batch frame covering ops.
func (l *wal) appendBatch(ops []walRecord) error {
	l.encBuf = encodeBatch(l.encBuf, ops)
	return l.write(l.encBuf)
}

// write hands whole records to the OS at the end of the log. A failed
// write is cut back off the file: every offset the store hands out —
// replication cursors, the memtable's value refs — assumes the file
// ends at size.
func (l *wal) write(p []byte) error {
	if _, err := l.f.Write(p); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			return fmt.Errorf("store: wal append: %w (cutting back the partial record: %v)", err, terr)
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	l.size += int64(len(p))
	l.flushed.Store(l.size)
	return nil
}

// syncTo blocks until at least the first `target` bytes of the log are
// fsynced. Writers that arrive while another fsync is in flight wait for
// syncMu and then usually find their bytes already covered — the group
// commit. Must not be called while holding the Store lock.
func (l *wal) syncTo(target int64) error {
	if l.synced.Load() >= target {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= target {
		return nil // a concurrent writer's fsync covered us
	}
	covered := l.flushed.Load()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	if l.synced.Load() < covered {
		l.synced.Store(covered)
	}
	return nil
}

func (l *wal) close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	// Pending syncTo callers must not fsync a closed file; whoever closes
	// the log (Close, TruncateWAL) has already made the data durable or is
	// discarding the file wholesale.
	l.synced.Store(math.MaxInt64)
	return l.f.Close()
}

// replay reads all intact records from path, invoking fn for each
// mutation with the file offset of its encoding; a mutation's value is
// valid only during the call. It returns the byte offset of the first
// torn tail record (== file size when the log is clean) so the caller
// can truncate it away.
//
// Only the shapes a crashed append can actually produce are forgiven as
// torn tails: a record whose claimed extent overruns the end of the file,
// or trailing zero fill (a preallocated region the append never reached).
// A record that is fully present but fails its checksum — or a zero
// length header with non-zero data behind it — is hard ErrCorrupt: those
// bytes were durably written and then damaged, and truncating them would
// silently rewrite history out from under the audit chain and any replica
// shipping this log.
func replayWAL(path string, fn func(r walRecord, at int64) error) (validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: open wal for replay: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: stat wal: %w", err)
	}
	fileSize := st.Size()
	br := bufio.NewReader(f)
	var offset int64
	header := make([]byte, 8)
	var payload []byte
	for {
		if _, err := io.ReadFull(br, header); err != nil {
			if err == io.EOF {
				return offset, nil
			}
			// Partial header at the tail: torn write.
			return offset, nil
		}
		n := int64(binary.LittleEndian.Uint32(header[0:4]))
		want := binary.LittleEndian.Uint32(header[4:8])
		if n <= 0 {
			if zeroTail(f, offset) {
				return offset, nil // preallocated zero fill, never written
			}
			return offset, fmt.Errorf("%w at offset %d: zero-length record with data behind it", ErrCorrupt, offset)
		}
		if offset+8+n > fileSize {
			// Record extends past EOF: the append was cut short.
			return offset, nil
		}
		payload = sizedBuf(payload, int(n))
		if _, err := io.ReadFull(br, payload); err != nil {
			return offset, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != want {
			return offset, fmt.Errorf("%w at offset %d", ErrCorrupt, offset)
		}
		if err := replayPayload(payload, offset+8, fn); err != nil {
			return offset, err
		}
		offset += 8 + n
	}
}

// zeroTail reports whether every byte of f from offset to EOF is zero —
// the shape of a preallocated region an append never reached.
func zeroTail(f *os.File, offset int64) bool {
	buf := make([]byte, 32*1024)
	for {
		n, err := f.ReadAt(buf, offset)
		for _, b := range buf[:n] {
			if b != 0 {
				return false
			}
		}
		offset += int64(n)
		if err != nil {
			return err == io.EOF
		}
	}
}
