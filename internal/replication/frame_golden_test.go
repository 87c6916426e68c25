package replication

import (
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/frame"
)

// The golden frame table pins the binary form of the replication
// layer's eleven frames (types 10-20) byte for byte: each row's
// production encoding must equal the committed hex literal, and the
// literal must decode to the values the row spells out.

// describeFrame decodes a frame with the decoder of its type and prints
// what came out.
func describeFrame(data []byte) (string, error) {
	switch kind := frameKind(data); kind {
	case frame.Hello, frame.Campaign:
		epoch, offsets, err := decodeCursors(data, kind)
		return fmt.Sprintf("epoch=%d cursors=%v", epoch, offsets), err
	case frame.Data:
		store, epoch, offset, seg, err := decodeData(data)
		return fmt.Sprintf("store=%s epoch=%d offset=%d seg=%x", store, epoch, offset, seg), err
	case frame.Ack, frame.Truncate:
		store, offset, err := decodeStoreOffset(data, kind)
		return fmt.Sprintf("store=%s offset=%d", store, offset), err
	case frame.Deny, frame.Heartbeat:
		epoch, err := decodeEpoch(data, kind)
		return fmt.Sprintf("epoch=%d", epoch), err
	case frame.Grant:
		granted, epoch, err := decodeGrant(data)
		return fmt.Sprintf("granted=%v epoch=%d", granted, epoch), err
	case frame.DigestReq:
		store, from, max, err := decodeDigestReq(data)
		return fmt.Sprintf("store=%s from=%d max=%d", store, from, max), err
	case frame.Digests:
		store, done, ds, err := decodeDigests(data)
		return fmt.Sprintf("store=%s done=%v digests=%v", store, done, ds), err
	case frame.SyncStart:
		durable, err := decodeSyncStart(data)
		return fmt.Sprintf("durable=%v", durable), err
	default:
		return "", fmt.Errorf("not a replication frame: type %d", kind)
	}
}

func TestGoldenReplicationFrames(t *testing.T) {
	cursors := []storeOffset{{name: "idmap", offset: 123, crc: 0xdeadbeef}, {name: "index", offset: 70000, crc: 1}, {name: "audit"}}
	for _, tc := range []struct {
		name    string
		frame   []byte
		want    string
		decoded string
	}{
		{"hello (10): cursors carry the prefix CRC, little-endian",
			encodeCursors(frame.Hello, 7, cursors),
			"c55f010a07030569646d61707befbeadde05696e646578f0a204010000000561756469740000000000",
			"epoch=7 cursors=[{idmap 123 3735928559} {index 70000 1} {audit 0 0}]"},
		{"hello (10), no stores",
			encodeCursors(frame.Hello, 1, nil),
			"c55f010a0100",
			"epoch=1 cursors=[]"},
		{"campaign (15): the same cursors without the CRC",
			encodeCursors(frame.Campaign, 300, cursors),
			"c55f010fac02030569646d61707b05696e646578f0a20405617564697400",
			"epoch=300 cursors=[{idmap 123 0} {index 70000 0} {audit 0 0}]"},
		{"data (11)",
			encodeData("index", 9, 456, []byte{0x05, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0xab}),
			"c55f010b05696e64657809c8030905000000deadbeefab",
			"store=index epoch=9 offset=456 seg=05000000deadbeefab"},
		{"data (11), empty segment",
			encodeData("audit", 1, 0, nil),
			"c55f010b056175646974010000",
			"store=audit epoch=1 offset=0 seg="},
		{"ack (12)",
			encodeStoreOffset(frame.Ack, "audit", 789),
			"c55f010c0561756469749506",
			"store=audit offset=789"},
		{"truncate (19): the ack layout under its own type",
			encodeStoreOffset(frame.Truncate, "idmap", 4096),
			"c55f01130569646d61708020",
			"store=idmap offset=4096"},
		{"deny (13)",
			encodeEpoch(frame.Deny, 4),
			"c55f010d04",
			"epoch=4"},
		{"heartbeat (14): the deny layout under its own type",
			encodeEpoch(frame.Heartbeat, 1<<40),
			"c55f010e808080808020",
			"epoch=1099511627776"},
		{"grant (16), granted",
			encodeGrant(true, 5),
			"c55f01100105",
			"granted=true epoch=5"},
		{"grant (16), refused",
			encodeGrant(false, 200),
			"c55f011000c801",
			"granted=false epoch=200"},
		{"digestreq (17)",
			encodeDigestReq("index", 123456, 512),
			"c55f011105696e646578c0c4078004",
			"store=index from=123456 max=512"},
		{"digests (18), last batch",
			encodeDigests("index", true, []recordDigest{{end: 41, crc: 0xcafef00d}, {end: 300, crc: 2}}),
			"c55f011205696e6465780102290df0fecaac0202000000",
			"store=index done=true digests=[{41 3405705229} {300 2}]"},
		{"digests (18), more to come, empty batch",
			encodeDigests("idmap", false, nil),
			"c55f01120569646d61700000",
			"store=idmap done=false digests=[]"},
		{"syncstart (20), async: the header and mode 1",
			encodeSyncStartMode(false),
			"c55f011401",
			"durable=false"},
		{"syncstart (20), durable: mode 0",
			encodeSyncStartMode(true),
			"c55f011400",
			"durable=true"},
		{"syncstart (20), header only: an older primary's, durable",
			frame.AppendHeader(nil, frame.SyncStart),
			"c55f0114",
			"durable=true"},
	} {
		if hex.EncodeToString(tc.frame) != tc.want {
			t.Errorf("%s: frame bytes changed\n got %x\nwant %s", tc.name, tc.frame, tc.want)
		}
		data, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Errorf("%s: bad literal: %v", tc.name, err)
			continue
		}
		if got, err := describeFrame(data); err != nil || got != tc.decoded {
			t.Errorf("%s: decoded %q, %v; want %q", tc.name, got, err, tc.decoded)
		}
	}
}
