package cluster

import (
	"bytes"
	"testing"

	"repro/internal/frame"
)

// FuzzShardMapFrame hammers the shard-map decoder with arbitrary
// bytes. Any input that decodes cleanly must re-encode to a frame that
// decodes to an equal map (canonical round-trip), and the decoder must
// never panic or accept torn frames.
func FuzzShardMapFrame(f *testing.F) {
	small, _ := NewMap(1, 0, []ShardInfo{{ID: 0, Addr: "http://a"}})
	big, _ := NewMap(900, 0, []ShardInfo{
		{ID: 0, Addr: "http://shard-0.local:8080"},
		{ID: 1, Addr: "http://shard-1.local:8080"},
		{ID: 2, Addr: ""},
	})
	f.Add(small.EncodeFrame())
	f.Add(big.EncodeFrame())
	f.Add([]byte{0xC5, 0x5F, 0x01, byte(frame.ShardMap)})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMapFrame(data)
		if err != nil {
			return
		}
		re := m.EncodeFrame()
		m2, err := DecodeMapFrame(re)
		if err != nil {
			t.Fatalf("re-encode of valid map does not decode: %v", err)
		}
		if !m.Equal(m2) {
			t.Fatalf("round-trip changed map: %+v vs %+v", m, m2)
		}
		// Torn frames of a valid encoding must never decode.
		if len(re) > 0 {
			if _, err := DecodeMapFrame(re[:len(re)-1]); err == nil {
				t.Fatal("torn frame accepted")
			}
		}
		if _, err := DecodeMapFrame(append(bytes.Clone(re), 0)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
}
