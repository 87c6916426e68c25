package replication

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/frame"
)

// goodFrames is one encoder-made frame of each of the eleven types.
func goodFrames() [][]byte {
	cursors := []storeOffset{{name: "idmap", offset: 123, crc: 0xdeadbeef}, {name: "audit"}}
	return [][]byte{
		encodeCursors(frame.Hello, 7, cursors),
		encodeData("index", 9, 456, bytes.Repeat([]byte{0xAB}, 37)),
		encodeStoreOffset(frame.Ack, "audit", 789),
		encodeEpoch(frame.Deny, 4),
		encodeEpoch(frame.Heartbeat, 1<<40),
		encodeCursors(frame.Campaign, 300, cursors),
		encodeGrant(true, 5),
		encodeDigestReq("index", 123456, 512),
		encodeDigests("index", true, []recordDigest{{end: 41, crc: 0xcafef00d}, {end: 300, crc: 2}}),
		encodeStoreOffset(frame.Truncate, "idmap", 4096),
		encodeSyncStartMode(false),
	}
}

// encodeSyncStart is a durable link's sync-start, the one the raw-link
// tests open their streams with.
func encodeSyncStart() []byte { return encodeSyncStartMode(true) }

// recoders holds, per frame type, the type's decoder followed by its
// encoder over what came out.
var recoders = map[frame.Type]func([]byte) ([]byte, error){
	frame.Hello:     recodeCursors(frame.Hello),
	frame.Campaign:  recodeCursors(frame.Campaign),
	frame.Ack:       recodeStoreOffset(frame.Ack),
	frame.Truncate:  recodeStoreOffset(frame.Truncate),
	frame.Deny:      recodeEpoch(frame.Deny),
	frame.Heartbeat: recodeEpoch(frame.Heartbeat),
	frame.Data: func(data []byte) ([]byte, error) {
		store, epoch, offset, seg, err := decodeData(data)
		return encodeData(store, epoch, offset, seg), err
	},
	frame.Grant: func(data []byte) ([]byte, error) {
		granted, epoch, err := decodeGrant(data)
		return encodeGrant(granted, epoch), err
	},
	frame.DigestReq: func(data []byte) ([]byte, error) {
		store, from, max, err := decodeDigestReq(data)
		return encodeDigestReq(store, from, max), err
	},
	frame.Digests: func(data []byte) ([]byte, error) {
		store, done, ds, err := decodeDigests(data)
		return encodeDigests(store, done, ds), err
	},
	frame.SyncStart: func(data []byte) ([]byte, error) {
		durable, err := decodeSyncStart(data)
		return encodeSyncStartMode(durable), err
	},
}

func recodeCursors(kind frame.Type) func([]byte) ([]byte, error) {
	return func(data []byte) ([]byte, error) {
		epoch, offsets, err := decodeCursors(data, kind)
		return encodeCursors(kind, epoch, offsets), err
	}
}

func recodeStoreOffset(kind frame.Type) func([]byte) ([]byte, error) {
	return func(data []byte) ([]byte, error) {
		store, offset, err := decodeStoreOffset(data, kind)
		return encodeStoreOffset(kind, store, offset), err
	}
}

func recodeEpoch(kind frame.Type) func([]byte) ([]byte, error) {
	return func(data []byte) ([]byte, error) {
		epoch, err := decodeEpoch(data, kind)
		return encodeEpoch(kind, epoch), err
	}
}

// reencode decodes a frame with the decoder of its type and encodes
// what came out again.
func reencode(data []byte) ([]byte, error) {
	recode := recoders[frameKind(data)]
	if recode == nil {
		return nil, errors.New("not a replication frame")
	}
	return recode(data)
}

// Every frame round-trips byte for byte, and no damaged form of it
// decodes: cut short at any byte, with a byte appended, with a foreign
// magic or version, or handed to another type's decoder. The one cut
// that decodes is a sync-start's cut to its header, which is an older
// primary's sync-start; it must read as durable. A sync-start's mode
// is 0 or 1, and the durable form takes no trailing byte either.
func TestCodecRoundTripAndDamage(t *testing.T) {
	if len(goodFrames()) != len(recoders) {
		t.Fatalf("%d sample frames for %d types", len(goodFrames()), len(recoders))
	}
	for _, good := range goodFrames() {
		kind := frameKind(good)
		if re, err := reencode(good); err != nil || !bytes.Equal(re, good) {
			t.Fatalf("type %d: re-encoded to %x, %v; want %x", kind, re, err, good)
		}
		for cut := 0; cut < len(good); cut++ {
			if kind == frame.SyncStart && cut == frame.HeaderLen {
				if durable, err := decodeSyncStart(good[:cut]); err != nil || !durable {
					t.Errorf("sync-start cut to its header = (durable %v, %v), want durable", durable, err)
				}
				continue
			}
			if _, err := recoders[kind](good[:cut]); err == nil {
				t.Errorf("type %d cut to %d of %d bytes decoded", kind, cut, len(good))
			}
		}
		if _, err := reencode(append(bytes.Clone(good), 0x00)); !errors.Is(err, frame.ErrTrail) {
			t.Errorf("type %d with a trailing byte: %v, want %v", kind, err, frame.ErrTrail)
		}
		for i, b := range []byte{'X', 'X', 0x7f} {
			bad := bytes.Clone(good)
			bad[i] = b
			if _, err := recoders[kind](bad); err == nil {
				t.Errorf("type %d with header byte %d damaged decoded", kind, i)
			}
		}
		for other, recode := range recoders {
			if _, err := recode(good); err == nil && other != kind {
				t.Errorf("type %d frame decoded as type %d", kind, other)
			}
		}
	}
	durable := encodeSyncStartMode(true)
	if _, err := reencode(append(bytes.Clone(durable), 0x00)); !errors.Is(err, frame.ErrTrail) {
		t.Errorf("durable sync-start with a trailing byte: %v, want %v", err, frame.ErrTrail)
	}
	for mode := 2; mode < 256; mode++ {
		bad := append(frame.AppendHeader(nil, frame.SyncStart), byte(mode))
		if _, err := decodeSyncStart(bad); err == nil {
			t.Errorf("sync-start with mode %d decoded", mode)
		}
	}
}

// A count or length the payload cannot back is refused before anything
// is sized from it.
func TestCodecBombs(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20} // uvarint 2^40
	with := func(kind frame.Type, payload ...[]byte) []byte {
		return bytes.Join(append([][]byte{frame.AppendHeader(nil, kind)}, payload...), nil)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"hello: 2^40 cursors", with(frame.Hello, []byte{0x01}, huge), frame.ErrBomb},
		{"hello: 3 cursors in 5 bytes", with(frame.Hello, []byte{0x01, 0x03, 0, 0, 0, 0, 0}), frame.ErrBomb},
		{"campaign: 2^40 cursors", with(frame.Campaign, []byte{0x01}, huge), frame.ErrBomb},
		{"hello: cursor name of 2^40 bytes", with(frame.Hello, []byte{0x01, 0x01}, huge, []byte{0, 0, 0, 0, 0}), frame.ErrLength},
		{"digests: 2^40 digests", with(frame.Digests, []byte{0x01, 's', 0x01}, huge), frame.ErrBomb},
		{"digests: 2 digests in 9 bytes", with(frame.Digests, []byte{0x01, 's', 0x00, 0x02}, make([]byte, 9)), frame.ErrBomb},
		{"data: segment of 2^40 bytes", with(frame.Data, []byte{0x01, 's', 0x01, 0x00}, huge, []byte{1, 2, 3}), frame.ErrLength},
		{"data: segment shorter than the payload", with(frame.Data, []byte{0x01, 's', 0x01, 0x00, 0x02, 1, 2, 3}), frame.ErrTrail},
		{"ack: store name of 2^40 bytes", with(frame.Ack, huge), frame.ErrLength},
		{"deny: varint that never ends", with(frame.Deny, bytes.Repeat([]byte{0xff}, 11)), frame.ErrVarint},
	} {
		if _, err := reencode(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzReplicationFrame: the decoders never panic on arbitrary bytes,
// and what one accepts re-encodes to a canonical frame — one that
// decodes and re-encodes to itself, no longer than the input. (Not to
// the input's own bytes: binary.Uvarint accepts a varint padded with
// continuation bytes, and a grant or done flag other than 1 reads as
// false. The one frame that re-encodes longer is an older primary's
// header-only sync-start, which gains its durable mode byte.)
func FuzzReplicationFrame(f *testing.F) {
	for _, good := range goodFrames() {
		f.Add(good)
		f.Add(good[:len(good)-1])
	}
	f.Add([]byte{0xC5, 0x5F, 0x01, byte(frame.Hello), 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Add(append(frame.AppendHeader(nil, frame.SyncStart), 2))
	f.Fuzz(func(t *testing.T, in []byte) {
		re, err := reencode(in)
		if err != nil {
			return
		}
		legacy := frameKind(in) == frame.SyncStart && len(in) == frame.HeaderLen
		if len(re) > len(in) && !(legacy && bytes.Equal(re, encodeSyncStartMode(true))) {
			t.Fatalf("%x re-encoded longer, to %x", in, re)
		}
		again, err := reencode(re)
		if err != nil || !bytes.Equal(again, re) {
			t.Fatalf("%x re-encoded to %x, which re-encodes to %x, %v", in, re, again, err)
		}
	})
}
