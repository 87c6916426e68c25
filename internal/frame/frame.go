// Package frame is the one binary message layer under every hop: the
// registry of frame types, the 4-byte header, the append primitives
// with their exact-size helpers, and the sticky-error Reader every
// binary decoder in the platform is written over. It is the binary twin
// of internal/xmlx; the per-type field layouts are tabulated in
// DESIGN.md §8 "The wire path".
//
// A frame is the header (magic 0xC5 0x5F, version 0x01, one Type byte)
// followed by the type's fields in fixed order. Integers are unsigned
// varints unless noted. A string is uvarint(len) + raw bytes. A time is
// a presence byte (0 = the zero time) followed, when present, by the
// zigzag-varint UnixNano. A list is uvarint(count) + count entries.
//
// The Reader is hardened against hostile input: every claimed length
// and count is checked against the bytes actually remaining before
// anything is sized from it, so truncated frames and length bombs fail
// cleanly without over-allocating.
package frame

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"strconv"
	"time"
)

// Type tags the payload kind of a frame. The numbers are the wire
// format: a type is never renumbered or reused.
type Type byte

const (
	// internal/event: the three messages of the paper's protocol.
	Notification  Type = 1
	Detail        Type = 2
	DetailRequest Type = 3
	// internal/transport: the control envelopes of the HTTP binding.
	Fault             Type = 4
	PublishResponse   Type = 5
	SubscribeRequest  Type = 6
	SubscribeResponse Type = 7
	// internal/cluster: the shard map.
	ShardMap Type = 8
	// 9 is reserved: it carried the retired reshard handoff stream.
	// internal/replication: WAL shipping, fencing, election and rejoin.
	Hello     Type = 10
	Data      Type = 11
	Ack       Type = 12
	Deny      Type = 13
	Heartbeat Type = 14
	Campaign  Type = 15
	Grant     Type = 16
	DigestReq Type = 17
	Digests   Type = 18
	Truncate  Type = 19
	SyncStart Type = 20
)

const (
	magic0  = 0xC5
	magic1  = 0x5F
	version = 0x01
	// HeaderLen is the fixed prefix length of every frame.
	HeaderLen = 4
)

// The decode failures. A Reader reports the first one it meets.
var (
	ErrShort    = errors.New("frame: truncated")
	ErrMagic    = errors.New("frame: not a css binary frame (bad magic)")
	ErrVersion  = errors.New("frame: unsupported frame version")
	ErrLength   = errors.New("frame: length exceeds payload")
	ErrVarint   = errors.New("frame: malformed varint")
	ErrBomb     = errors.New("frame: claims more entries than payload can hold")
	ErrPresence = errors.New("frame: invalid time presence byte")
	ErrTrail    = errors.New("frame: trailing garbage")
)

// IsFrame reports whether data starts with the frame magic. Transport
// sniffs bodies with it when a peer may answer in either wire format.
func IsFrame(data []byte) bool {
	return len(data) >= 2 && data[0] == magic0 && data[1] == magic1
}

// AppendHeader appends the 4-byte frame prefix for the given type.
func AppendHeader(dst []byte, t Type) []byte {
	return append(dst, magic0, magic1, version, byte(t))
}

// UvarintLen returns the encoded size of x as an unsigned varint: one
// byte per seven significant bits, and one for zero.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// StringLen returns the encoded size of a string field.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// AppendString appends a length-prefixed string field.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// TimeLen returns the encoded size of a time field.
func TimeLen(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	v := t.UnixNano()
	return 1 + UvarintLen(uint64((v<<1)^(v>>63))) // zigzag, as AppendVarint does
}

// AppendTime appends a time field: presence byte, then UnixNano. The
// zero time is preserved exactly (a bare 0 byte); non-zero times
// round-trip with nanosecond precision in the UTC location. UnixNano is
// defined for 1678-2262 only; the event validators refuse times outside.
func AppendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	return binary.AppendVarint(append(dst, 1), t.UnixNano())
}

// Reader is one forward pass over a frame's payload. The first failure
// sticks and empties the reader, so every later read fails too and
// returns a zero value: decoders read like field lists and ask Done
// once at the end. It advances an index and never re-slices the buffer,
// which keeps pointer writes (and their GC barriers) off the read path.
type Reader struct {
	buf []byte
	pos int
	err error
}

// Read checks the header of data against the wanted type and returns a
// reader over the payload that follows it.
func Read(data []byte, want Type) Reader {
	switch {
	case len(data) < HeaderLen:
		return Reader{err: ErrShort}
	case !IsFrame(data):
		return Reader{err: ErrMagic}
	case data[2] != version:
		return Reader{err: ErrVersion}
	case Type(data[3]) != want:
		return Reader{err: errors.New("frame: type mismatch: want " +
			strconv.Itoa(int(want)) + ", got " + strconv.Itoa(int(data[3])))}
	}
	return Reader{buf: data, pos: HeaderLen}
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.pos = len(r.buf)
}

// take consumes n bytes, failing with err when fewer remain. The result
// aliases the input.
func (r *Reader) take(n uint64, err error) []byte {
	if n > uint64(len(r.buf)-r.pos) {
		r.fail(err)
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrVarint)
		return 0
	}
	r.pos += n
	return v
}

// Bytes reads a length-prefixed byte string without copying it. The
// claimed length is checked against the bytes present.
func (r *Reader) Bytes() []byte { return r.take(r.Uvarint(), ErrLength) }

// String reads a length-prefixed string field.
func (r *Reader) String() string { return string(r.Bytes()) }

// Byte reads one raw byte (a one-byte enum).
func (r *Reader) Byte() byte {
	if b := r.take(1, ErrShort); b != nil {
		return b[0]
	}
	return 0
}

// Uint32 reads a fixed four-byte little-endian integer (the CRCs).
func (r *Reader) Uint32() uint32 {
	if b := r.take(4, ErrShort); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Time reads a time field written by AppendTime.
func (r *Reader) Time() time.Time {
	switch b := r.take(1, ErrShort); {
	case b == nil || b[0] == 0:
	case b[0] == 1:
		// The zigzag varint binary.AppendVarint wrote.
		if u := r.Uvarint(); r.err == nil {
			return time.Unix(0, int64(u>>1)^-int64(u&1)).UTC()
		}
	default:
		r.fail(ErrPresence)
	}
	return time.Time{}
}

// Count reads a list's entry count and refuses one the remaining
// payload cannot hold at minBytes per entry — before the caller sizes
// anything from it, and so that a loop over the count is bounded by the
// input's length.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64((len(r.buf)-r.pos)/minBytes) {
		r.fail(ErrBomb)
		return 0
	}
	return int(n)
}

// More reports whether unread payload remains: the test for a trailing
// group of fields that older writers did not send.
func (r *Reader) More() bool { return r.pos < len(r.buf) }

// Err returns the first failure, tolerating unread payload: for the
// messages that may grow fields an older reader must skip.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or ErrTrail when payload is left
// unread.
func (r *Reader) Done() error {
	if r.err == nil && r.More() {
		return ErrTrail
	}
	return r.err
}
