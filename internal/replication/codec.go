// Package replication ships a primary controller's write-ahead logs to
// follower replicas and promotes the most-caught-up follower when the
// primary dies.
//
// The unit of replication is the raw CRC'd WAL record the store already
// writes (PR 2): the primary tails each of its stores' logs and streams
// byte ranges to every follower, which appends the identical bytes to
// its own log and applies the decoded mutations — a follower's WAL is
// at all times a byte-identical prefix of the primary's, so a cursor is
// just (store, byte offset) and catch-up after a reconnect starts from
// the offsets the follower announces in its hello.
//
// Durability modes:
//
//   - async: the publish path never waits for followers; the bounded
//     loss window is visible as css_repl_lag_bytes per follower. A
//     follower acks what it applied and fsyncs when a heartbeat
//     arrives, so its disk trails its page cache by at most one
//     heartbeat interval.
//   - quorum: Primary.Barrier blocks until ⌈N/2⌉ followers have fsynced
//     everything staged before the barrier. The controller overlaps the
//     barrier with bus fan-out exactly like the PR 7 group-commit wait,
//     so it costs one network round trip off the latency path.
//
// The sync-start frame tells the follower which: a link is durable, and
// each ack certifies an fsync, under quorum or with heartbeats off.
//
// Fencing: every data frame carries the primary's epoch. A follower
// that has seen a higher epoch (because a promoted primary reached it
// first, or the operator raised it during failover) answers with a deny
// frame and drops the connection, so a deposed primary's late writes
// can never land. Epochs are recorded per shard in the versioned shard
// map (cluster.ShardInfo.Epoch) — the promotion that bumps the map
// version is the lease claim. A process's own epoch lives in exactly
// one place, the Node's durable cell (node.go, epoch.go): the Node owns
// the role, that epoch, the Primary it ships with while it leads, the
// Follower it listens with while it follows, and the election loop
// between the two.
//
// Cross-store consistency: a publish touches idmap, then index, then
// audit. The shipper captures per-store targets in *reverse* dependency
// order and ships segments in forward order, so any record visible in a
// later store implies its prerequisites in earlier stores were captured
// in the same round — a follower cut never holds an index entry without
// its pseudonym mapping, or an audit record without its index entry.
//
// Wire format: each message is a 4-byte little-endian length followed
// by one binary frame (internal/frame), and it is written whole: the
// length and the frame go out in one Write, never as two. Each end
// writes through one buffered writer per connection and flushes at the
// points where the peer waits: the shipper once per round (its
// heartbeat and data frames together), the follower once per drain
// (every ack of what the drain applied), and every other message as it
// is written. Replication owns frame types
// 10-20; their field layouts are tabulated in DESIGN.md §8. Hello, data,
// ack and deny (10-13) ship WALs and fence stale primaries. The rest
// are the self-healing failover frames: heartbeat and campaign/grant
// drive the election, and the hello's per-store CRC lets the primary
// spot a diverged rejoiner (a deposed primary whose log carries an
// unreplicated old-epoch suffix) in one round trip; the digest frames
// then walk the log record by record to the first divergence, truncate
// cuts the rejoiner back to the common prefix, and syncstart opens the
// data stream.
package replication

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/frame"
)

// maxMessage bounds a wire message; segments are shipped in chunks far
// below it, so anything larger is corruption, not load.
const maxMessage = 64 << 20

// writeMsg writes one message whole: the 4-byte LE length and the frame
// in a single Write, so an unbuffered connection sends it in one
// syscall. Into a bufio.Writer it is appended in place, without an
// allocation.
func writeMsg(w io.Writer, msg []byte) error {
	var dst []byte
	if bw, ok := w.(*bufio.Writer); ok {
		dst = bw.AvailableBuffer()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msg)))
	_, err := w.Write(append(dst, msg...))
	return err
}

// sendMsg writes one message and flushes it: a request or reply the
// peer waits on.
func sendMsg(bw *bufio.Writer, msg []byte) error {
	if err := writeMsg(bw, msg); err != nil {
		return err
	}
	return bw.Flush()
}

// readMsg reads one length-prefixed message into a new slice.
func readMsg(br *bufio.Reader) ([]byte, error) {
	return readMsgInto(br, nil)
}

// readMsgInto reads one length-prefixed message into buf's storage when
// it is large enough, else into a new slice; the message is valid until
// buf is read into again.
func readMsgInto(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxMessage {
		return nil, fmt.Errorf("replication: message of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	msg := buf[:n]
	if _, err := io.ReadFull(br, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// frameKind peeks the frame type of a raw message without validating
// the body (0 when the message is too short to carry a header).
func frameKind(msg []byte) frame.Type {
	if len(msg) < frame.HeaderLen {
		return 0
	}
	return frame.Type(msg[3])
}

// storeOffset is one (store, byte offset) cursor in a hello or campaign
// frame. In a hello, crc is the CRC-32 of the follower's whole WAL
// prefix [0, offset) — the primary's one-round-trip divergence check;
// campaigns carry offsets only (crc is zero and unused).
type storeOffset struct {
	name   string
	offset int64
	crc    uint32
}

// encodeCursors builds the shared body of hello and campaign frames: an
// epoch and a list of per-store cursors, each with a prefix CRC in a
// hello only.
func encodeCursors(kind frame.Type, epoch uint64, offsets []storeOffset) []byte {
	withCRC := kind == frame.Hello
	size := frame.HeaderLen + frame.UvarintLen(epoch) + frame.UvarintLen(uint64(len(offsets)))
	for _, o := range offsets {
		// Room for the CRC either way: a campaign just leaves it unused.
		size += frame.StringLen(o.name) + frame.UvarintLen(uint64(o.offset)) + 4
	}
	dst := make([]byte, 0, size)
	dst = frame.AppendHeader(dst, kind)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(len(offsets)))
	for _, o := range offsets {
		dst = frame.AppendString(dst, o.name)
		dst = binary.AppendUvarint(dst, uint64(o.offset))
		if withCRC {
			dst = binary.LittleEndian.AppendUint32(dst, o.crc)
		}
	}
	return dst
}

func decodeCursors(data []byte, kind frame.Type) (epoch uint64, offsets []storeOffset, err error) {
	r := frame.Read(data, kind)
	epoch = r.Uvarint()
	// An entry is at least a one-byte name length and a one-byte offset.
	count := r.Count(2)
	offsets = make([]storeOffset, count)
	for i := range offsets {
		o := &offsets[i]
		o.name, o.offset = r.String(), int64(r.Uvarint())
		if kind == frame.Hello {
			o.crc = r.Uint32()
		}
	}
	if err := r.Done(); err != nil {
		return 0, nil, err
	}
	return epoch, offsets, nil
}

// dataHeadLen is the length of a data frame up to its segment bytes.
func dataHeadLen(store string, epoch uint64, offset int64, segLen int) int {
	return frame.HeaderLen + frame.StringLen(store) +
		frame.UvarintLen(epoch) + frame.UvarintLen(uint64(offset)) +
		frame.UvarintLen(uint64(segLen))
}

// appendDataHead appends a data frame up to its segment bytes.
func appendDataHead(dst []byte, store string, epoch uint64, offset int64, segLen int) []byte {
	dst = frame.AppendHeader(dst, frame.Data)
	dst = frame.AppendString(dst, store)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(offset))
	return binary.AppendUvarint(dst, uint64(segLen))
}

func encodeData(store string, epoch uint64, offset int64, seg []byte) []byte {
	dst := make([]byte, 0, dataHeadLen(store, epoch, offset, len(seg))+len(seg))
	return append(appendDataHead(dst, store, epoch, offset, len(seg)), seg...)
}

// writeData writes the message writeMsg(bw, encodeData(...)) would, but
// puts the length and frame head in bw's free buffer space and the
// segment behind them, with no segment-sized frame built first.
func writeData(bw *bufio.Writer, store string, epoch uint64, offset int64, seg []byte) error {
	n := dataHeadLen(store, epoch, offset, len(seg)) + len(seg)
	dst := binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), uint32(n))
	if _, err := bw.Write(appendDataHead(dst, store, epoch, offset, len(seg))); err != nil {
		return err
	}
	_, err := bw.Write(seg)
	return err
}

// decodeData returns the segment as a slice of data, not a copy.
func decodeData(data []byte) (store string, epoch uint64, offset int64, seg []byte, err error) {
	r := frame.Read(data, frame.Data)
	store, epoch, offset, seg = r.String(), r.Uvarint(), int64(r.Uvarint()), r.Bytes()
	if err := r.Done(); err != nil {
		return "", 0, 0, nil, err
	}
	return store, epoch, offset, seg, nil
}

// encodeStoreOffset builds the shared body of ack and truncate frames.
func encodeStoreOffset(kind frame.Type, store string, offset int64) []byte {
	size := frame.HeaderLen + frame.StringLen(store) + frame.UvarintLen(uint64(offset))
	dst := frame.AppendHeader(make([]byte, 0, size), kind)
	dst = frame.AppendString(dst, store)
	return binary.AppendUvarint(dst, uint64(offset))
}

func decodeStoreOffset(data []byte, kind frame.Type) (store string, offset int64, err error) {
	r := frame.Read(data, kind)
	store, offset = r.String(), int64(r.Uvarint())
	if err := r.Done(); err != nil {
		return "", 0, err
	}
	return store, offset, nil
}

// encodeEpoch builds the shared body of deny and heartbeat frames.
func encodeEpoch(kind frame.Type, epoch uint64) []byte {
	dst := frame.AppendHeader(make([]byte, 0, frame.HeaderLen+frame.UvarintLen(epoch)), kind)
	return binary.AppendUvarint(dst, epoch)
}

func decodeEpoch(data []byte, kind frame.Type) (epoch uint64, err error) {
	r := frame.Read(data, kind)
	epoch = r.Uvarint()
	if err := r.Done(); err != nil {
		return 0, err
	}
	return epoch, nil
}

// bit is a boolean on the wire: uvarint 1 for true, 0 for false.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func encodeGrant(granted bool, epoch uint64) []byte {
	dst := frame.AppendHeader(make([]byte, 0, frame.HeaderLen+1+frame.UvarintLen(epoch)), frame.Grant)
	dst = binary.AppendUvarint(dst, bit(granted))
	return binary.AppendUvarint(dst, epoch)
}

func decodeGrant(data []byte) (granted bool, epoch uint64, err error) {
	r := frame.Read(data, frame.Grant)
	granted, epoch = r.Uvarint() == 1, r.Uvarint()
	if err := r.Done(); err != nil {
		return false, 0, err
	}
	return granted, epoch, nil
}

func encodeDigestReq(store string, from int64, max int) []byte {
	size := frame.HeaderLen + frame.StringLen(store) +
		frame.UvarintLen(uint64(from)) + frame.UvarintLen(uint64(max))
	dst := frame.AppendHeader(make([]byte, 0, size), frame.DigestReq)
	dst = frame.AppendString(dst, store)
	dst = binary.AppendUvarint(dst, uint64(from))
	return binary.AppendUvarint(dst, uint64(max))
}

func decodeDigestReq(data []byte) (store string, from int64, max int, err error) {
	r := frame.Read(data, frame.DigestReq)
	store, from, max = r.String(), int64(r.Uvarint()), int(r.Uvarint())
	if err := r.Done(); err != nil {
		return "", 0, 0, err
	}
	return store, from, max, nil
}

// recordDigest mirrors store.WALRecordDigest on the wire: the byte
// offset just past one record and the CRC-32 of its framed bytes.
type recordDigest struct {
	end int64
	crc uint32
}

func encodeDigests(store string, done bool, ds []recordDigest) []byte {
	size := frame.HeaderLen + frame.StringLen(store) + 1 + frame.UvarintLen(uint64(len(ds)))
	for _, d := range ds {
		size += frame.UvarintLen(uint64(d.end)) + 4
	}
	dst := frame.AppendHeader(make([]byte, 0, size), frame.Digests)
	dst = frame.AppendString(dst, store)
	dst = binary.AppendUvarint(dst, bit(done))
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for _, d := range ds {
		dst = binary.AppendUvarint(dst, uint64(d.end))
		dst = binary.LittleEndian.AppendUint32(dst, d.crc)
	}
	return dst
}

func decodeDigests(data []byte) (store string, done bool, ds []recordDigest, err error) {
	r := frame.Read(data, frame.Digests)
	store, done = r.String(), r.Uvarint() == 1
	// An entry is at least a one-byte end varint and a 4-byte CRC.
	ds = make([]recordDigest, r.Count(5))
	for i := range ds {
		ds[i] = recordDigest{end: int64(r.Uvarint()), crc: r.Uint32()}
	}
	if err := r.Done(); err != nil {
		return "", false, nil, err
	}
	return store, done, ds, nil
}

// The sync-start's mode field: what the link's acks certify.
const (
	// modeDurable: an ack names an offset the follower has fsynced.
	modeDurable = 0
	// modeAsync: an ack names an offset the follower has applied; it
	// fsyncs when a heartbeat arrives.
	modeAsync = 1
)

// encodeSyncStartMode builds the sync-start frame: the header, then the
// link's one-byte mode.
func encodeSyncStartMode(durable bool) []byte {
	dst := frame.AppendHeader(make([]byte, 0, frame.HeaderLen+1), frame.SyncStart)
	if durable {
		return append(dst, modeDurable)
	}
	return append(dst, modeAsync)
}

// decodeSyncStart reads a sync-start's mode. A header-only frame is an
// older primary's, whose links were all durable.
func decodeSyncStart(data []byte) (durable bool, err error) {
	r := frame.Read(data, frame.SyncStart)
	if !r.More() {
		return true, r.Done()
	}
	mode := r.Byte()
	if err := r.Done(); err != nil {
		return false, err
	}
	switch mode {
	case modeDurable:
		return true, nil
	case modeAsync:
		return false, nil
	}
	return false, fmt.Errorf("replication: sync-start mode %d", mode)
}
