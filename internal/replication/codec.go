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
//     loss window is visible as css_repl_lag_bytes per follower.
//   - quorum: Primary.Barrier blocks until ⌈N/2⌉ followers have fsynced
//     everything staged before the barrier. The controller overlaps the
//     barrier with bus fan-out exactly like the PR 7 group-commit wait,
//     so it costs one network round trip off the latency path.
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
// by one binary frame using the event package's header conventions
// (same magic/version as the PR 7 codec; the cluster layer owns frame
// types 8-9, replication claims 10-13):
//
//	hello (10):  uvarint epoch | uvarint count | count × (string store, uvarint offset, [4]crc32 of the WAL prefix)
//	data  (11):  string store | uvarint epoch | uvarint offset | uvarint len | raw WAL records
//	ack   (12):  string store | uvarint offset fsynced through
//	deny  (13):  uvarint epoch the follower holds (fencing rejection)
//
// PR 10 adds self-healing failover frames (14-20). The hello's per-store
// CRC lets the primary spot a diverged rejoiner (a deposed primary whose
// log carries an unreplicated old-epoch suffix) in one round trip; the
// digest frames then walk the log record by record to the first
// divergence, and truncate cuts the rejoiner back to the common prefix:
//
//	heartbeat (14): uvarint epoch — primary liveness, feeds the failure detector
//	campaign  (15): uvarint epoch | uvarint count | count × (string store, uvarint offset) — candidate's claim + cursors
//	grant     (16): uvarint granted (0|1) | uvarint epoch the voter now holds
//	digestreq (17): string store | uvarint from | uvarint max
//	digests   (18): string store | uvarint done (0|1) | uvarint count | count × (uvarint end, [4]crc32 of the record)
//	truncate  (19): string store | uvarint offset — cut the log back to offset (acked)
//	syncstart (20): (empty) — negotiation over; follower certifies its prefix and the data stream begins
package replication

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/event"
)

// Frame types claimed by the replication layer (event owns 1-7,
// cluster owns 8-9).
const (
	// FrameHello announces a follower's epoch and per-store cursors.
	FrameHello = event.FrameType(10)
	// FrameData carries one raw WAL segment for one store.
	FrameData = event.FrameType(11)
	// FrameAck acknowledges a follower fsync through an offset.
	FrameAck = event.FrameType(12)
	// FrameDeny rejects a stale-epoch primary (fencing).
	FrameDeny = event.FrameType(13)
	// FrameHeartbeat is a primary liveness beacon carrying its epoch.
	FrameHeartbeat = event.FrameType(14)
	// FrameCampaign is a candidate's election claim: the epoch it wants
	// plus its per-store cursors (the voter's up-to-date check).
	FrameCampaign = event.FrameType(15)
	// FrameGrant answers a campaign: granted or not, and the epoch the
	// voter holds after deciding.
	FrameGrant = event.FrameType(16)
	// FrameDigestReq asks a rejoining follower for per-record WAL
	// digests starting at an offset.
	FrameDigestReq = event.FrameType(17)
	// FrameDigests carries a batch of per-record WAL digests.
	FrameDigests = event.FrameType(18)
	// FrameTruncate orders a rejoining follower to cut a store's WAL
	// back to the common prefix.
	FrameTruncate = event.FrameType(19)
	// FrameSyncStart ends rejoin negotiation: the follower certifies its
	// (possibly truncated) prefix and the data stream begins.
	FrameSyncStart = event.FrameType(20)
)

// maxMessage bounds a wire message; segments are shipped in chunks far
// below it, so anything larger is corruption, not load.
const maxMessage = 64 << 20

var (
	errCodecVarint = errors.New("replication: frame has malformed varint")
	errCodecTrail  = errors.New("replication: frame has trailing garbage")
	errCodecBomb   = errors.New("replication: frame claims more than the payload holds")
)

// writeMsg frames and writes one message: 4-byte LE length + frame.
func writeMsg(w io.Writer, frame []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// readMsg reads one length-prefixed message.
func readMsg(br *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxMessage {
		return nil, fmt.Errorf("replication: message of %d bytes exceeds limit", n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(br, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// frameKind peeks the frame type of a raw message without validating
// the body (0 when the message is too short to carry a header).
func frameKind(msg []byte) event.FrameType {
	if len(msg) < event.FrameHeaderLen {
		return 0
	}
	return event.FrameType(msg[3])
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

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// encodeCursors builds the shared body of hello and campaign frames: an
// epoch and a list of per-store cursors, each with a prefix CRC in a
// hello only.
func encodeCursors(kind event.FrameType, epoch uint64, offsets []storeOffset) []byte {
	withCRC := kind == FrameHello
	size := event.FrameHeaderLen + uvarintLen(epoch) + uvarintLen(uint64(len(offsets)))
	for _, o := range offsets {
		// Room for the CRC either way: a campaign just leaves it unused.
		size += uvarintLen(uint64(len(o.name))) + len(o.name) + uvarintLen(uint64(o.offset)) + 4
	}
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, kind)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(len(offsets)))
	for _, o := range offsets {
		dst = event.AppendFrameString(dst, o.name)
		dst = binary.AppendUvarint(dst, uint64(o.offset))
		if withCRC {
			dst = binary.LittleEndian.AppendUint32(dst, o.crc)
		}
	}
	return dst
}

func decodeCursors(data []byte, kind event.FrameType) (epoch uint64, offsets []storeOffset, err error) {
	withCRC := kind == FrameHello
	p, err := event.FrameBody(data, kind)
	if err != nil {
		return 0, nil, err
	}
	epoch, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errCodecVarint
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errCodecVarint
	}
	p = p[n:]
	// Each entry needs at least a one-byte name length and a one-byte
	// offset varint.
	if count > uint64(len(p))/2 {
		return 0, nil, errCodecBomb
	}
	offsets = make([]storeOffset, 0, count)
	for i := uint64(0); i < count; i++ {
		var o storeOffset
		if o.name, p, err = event.FrameString(p); err != nil {
			return 0, nil, err
		}
		off, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, nil, errCodecVarint
		}
		o.offset, p = int64(off), p[n:]
		if withCRC {
			if len(p) < 4 {
				return 0, nil, errCodecBomb
			}
			o.crc, p = binary.LittleEndian.Uint32(p), p[4:]
		}
		offsets = append(offsets, o)
	}
	if len(p) != 0 {
		return 0, nil, errCodecTrail
	}
	return epoch, offsets, nil
}

func encodeData(store string, epoch uint64, offset int64, seg []byte) []byte {
	size := event.FrameHeaderLen +
		uvarintLen(uint64(len(store))) + len(store) +
		uvarintLen(epoch) + uvarintLen(uint64(offset)) +
		uvarintLen(uint64(len(seg))) + len(seg)
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, FrameData)
	dst = event.AppendFrameString(dst, store)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(offset))
	dst = binary.AppendUvarint(dst, uint64(len(seg)))
	return append(dst, seg...)
}

func decodeData(data []byte) (store string, epoch uint64, offset int64, seg []byte, err error) {
	p, err := event.FrameBody(data, FrameData)
	if err != nil {
		return "", 0, 0, nil, err
	}
	if store, p, err = event.FrameString(p); err != nil {
		return "", 0, 0, nil, err
	}
	epoch, n := binary.Uvarint(p)
	if n <= 0 {
		return "", 0, 0, nil, errCodecVarint
	}
	p = p[n:]
	off, n := binary.Uvarint(p)
	if n <= 0 {
		return "", 0, 0, nil, errCodecVarint
	}
	p = p[n:]
	l, n := binary.Uvarint(p)
	if n <= 0 {
		return "", 0, 0, nil, errCodecVarint
	}
	p = p[n:]
	if l != uint64(len(p)) {
		return "", 0, 0, nil, errCodecBomb
	}
	return store, epoch, int64(off), p, nil
}

// encodeStoreOffset builds the shared body of ack and truncate frames.
func encodeStoreOffset(kind event.FrameType, store string, offset int64) []byte {
	size := event.FrameHeaderLen + uvarintLen(uint64(len(store))) + len(store) + uvarintLen(uint64(offset))
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, kind)
	dst = event.AppendFrameString(dst, store)
	return binary.AppendUvarint(dst, uint64(offset))
}

func decodeStoreOffset(data []byte, kind event.FrameType) (store string, offset int64, err error) {
	p, err := event.FrameBody(data, kind)
	if err != nil {
		return "", 0, err
	}
	if store, p, err = event.FrameString(p); err != nil {
		return "", 0, err
	}
	off, n := binary.Uvarint(p)
	if n <= 0 {
		return "", 0, errCodecVarint
	}
	if len(p[n:]) != 0 {
		return "", 0, errCodecTrail
	}
	return store, int64(off), nil
}

// encodeEpoch builds the shared body of deny and heartbeat frames.
func encodeEpoch(kind event.FrameType, epoch uint64) []byte {
	dst := make([]byte, 0, event.FrameHeaderLen+uvarintLen(epoch))
	dst = event.AppendFrameHeader(dst, kind)
	return binary.AppendUvarint(dst, epoch)
}

func decodeEpoch(data []byte, kind event.FrameType) (epoch uint64, err error) {
	p, err := event.FrameBody(data, kind)
	if err != nil {
		return 0, err
	}
	epoch, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, errCodecVarint
	}
	if len(p[n:]) != 0 {
		return 0, errCodecTrail
	}
	return epoch, nil
}

func encodeGrant(granted bool, epoch uint64) []byte {
	g := uint64(0)
	if granted {
		g = 1
	}
	dst := make([]byte, 0, event.FrameHeaderLen+1+uvarintLen(epoch))
	dst = event.AppendFrameHeader(dst, FrameGrant)
	dst = binary.AppendUvarint(dst, g)
	return binary.AppendUvarint(dst, epoch)
}

func decodeGrant(data []byte) (granted bool, epoch uint64, err error) {
	p, err := event.FrameBody(data, FrameGrant)
	if err != nil {
		return false, 0, err
	}
	g, n := binary.Uvarint(p)
	if n <= 0 {
		return false, 0, errCodecVarint
	}
	p = p[n:]
	epoch, n = binary.Uvarint(p)
	if n <= 0 {
		return false, 0, errCodecVarint
	}
	if len(p[n:]) != 0 {
		return false, 0, errCodecTrail
	}
	return g == 1, epoch, nil
}

func encodeDigestReq(store string, from int64, max int) []byte {
	size := event.FrameHeaderLen + uvarintLen(uint64(len(store))) + len(store) +
		uvarintLen(uint64(from)) + uvarintLen(uint64(max))
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, FrameDigestReq)
	dst = event.AppendFrameString(dst, store)
	dst = binary.AppendUvarint(dst, uint64(from))
	return binary.AppendUvarint(dst, uint64(max))
}

func decodeDigestReq(data []byte) (store string, from int64, max int, err error) {
	p, err := event.FrameBody(data, FrameDigestReq)
	if err != nil {
		return "", 0, 0, err
	}
	if store, p, err = event.FrameString(p); err != nil {
		return "", 0, 0, err
	}
	f, n := binary.Uvarint(p)
	if n <= 0 {
		return "", 0, 0, errCodecVarint
	}
	p = p[n:]
	m, n := binary.Uvarint(p)
	if n <= 0 {
		return "", 0, 0, errCodecVarint
	}
	if len(p[n:]) != 0 {
		return "", 0, 0, errCodecTrail
	}
	return store, int64(f), int(m), nil
}

// recordDigest mirrors store.WALRecordDigest on the wire: the byte
// offset just past one record and the CRC-32 of its framed bytes.
type recordDigest struct {
	end int64
	crc uint32
}

func encodeDigests(store string, done bool, ds []recordDigest) []byte {
	d := uint64(0)
	if done {
		d = 1
	}
	size := event.FrameHeaderLen + uvarintLen(uint64(len(store))) + len(store) +
		1 + uvarintLen(uint64(len(ds)))
	for _, r := range ds {
		size += uvarintLen(uint64(r.end)) + 4
	}
	dst := make([]byte, 0, size)
	dst = event.AppendFrameHeader(dst, FrameDigests)
	dst = event.AppendFrameString(dst, store)
	dst = binary.AppendUvarint(dst, d)
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for _, r := range ds {
		dst = binary.AppendUvarint(dst, uint64(r.end))
		dst = binary.LittleEndian.AppendUint32(dst, r.crc)
	}
	return dst
}

func decodeDigests(data []byte) (store string, done bool, ds []recordDigest, err error) {
	p, err := event.FrameBody(data, FrameDigests)
	if err != nil {
		return "", false, nil, err
	}
	if store, p, err = event.FrameString(p); err != nil {
		return "", false, nil, err
	}
	d, n := binary.Uvarint(p)
	if n <= 0 {
		return "", false, nil, errCodecVarint
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return "", false, nil, errCodecVarint
	}
	p = p[n:]
	// Each entry needs at least a one-byte end varint and a 4-byte CRC.
	if count > uint64(len(p))/5 {
		return "", false, nil, errCodecBomb
	}
	ds = make([]recordDigest, 0, count)
	for i := uint64(0); i < count; i++ {
		end, n := binary.Uvarint(p)
		if n <= 0 {
			return "", false, nil, errCodecVarint
		}
		p = p[n:]
		if len(p) < 4 {
			return "", false, nil, errCodecBomb
		}
		crc := binary.LittleEndian.Uint32(p)
		p = p[4:]
		ds = append(ds, recordDigest{end: int64(end), crc: crc})
	}
	if len(p) != 0 {
		return "", false, nil, errCodecTrail
	}
	return store, d == 1, ds, nil
}

func encodeSyncStart() []byte {
	return event.AppendFrameHeader(make([]byte, 0, event.FrameHeaderLen), FrameSyncStart)
}

func decodeSyncStart(data []byte) error {
	p, err := event.FrameBody(data, FrameSyncStart)
	if err != nil {
		return err
	}
	if len(p) != 0 {
		return errCodecTrail
	}
	return nil
}
