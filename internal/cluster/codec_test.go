package cluster

import (
	"bytes"
	"testing"

	"repro/internal/frame"
)

func TestMapFrameRoundTrip(t *testing.T) {
	m, err := NewMap(42, 0, testShards(4))
	if err != nil {
		t.Fatal(err)
	}
	frame := m.EncodeFrame()
	got, err := DecodeMapFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Fatalf("round-trip changed the map: %+v vs %+v", m, got)
	}
	for i := 0; i < 100; i++ {
		k := string(rune('a'+i%26)) + "-key"
		if m.Owner(k) != got.Owner(k) {
			t.Fatalf("decoded map routes %q differently", k)
		}
	}
}

func TestMapFrameTornRejected(t *testing.T) {
	m, err := NewMap(7, 0, testShards(3))
	if err != nil {
		t.Fatal(err)
	}
	frame := m.EncodeFrame()
	for cut := 0; cut < len(frame); cut++ {
		if _, err := DecodeMapFrame(frame[:cut]); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes decoded cleanly", cut, len(frame))
		}
	}
	if _, err := DecodeMapFrame(append(bytes.Clone(frame), 0x00)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestMapFrameHostileInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":                     {},
		"bad magic":                 {0x00, 0x00, 0x01, byte(frame.ShardMap)},
		"wrong type (notification)": {0xC5, 0x5F, 0x01, 0x01},
		// version=1, count claims 2^62 shards.
		"length bomb": append([]byte{0xC5, 0x5F, 0x01, byte(frame.ShardMap), 0x01},
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f),
		// Two shards numbered 0 and 2: ids must be dense, 0..N-1.
		"sparse ids": {0xC5, 0x5F, 0x01, byte(frame.ShardMap), 0x01, 0x02,
			0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00},
		// count=0 shards decodes structurally but fails NewMap.
		"no shards": {0xC5, 0x5F, 0x01, byte(frame.ShardMap), 0x01, 0x00},
	}
	for name, data := range cases {
		if _, err := DecodeMapFrame(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
