package cluster

import (
	"encoding/hex"
	"testing"
)

// The golden frame table pins the binary form of the cluster layer's
// frame (type 8) byte for byte: each row's production encoding
// must equal the committed hex literal, and the literal must decode to
// the row's value.

func TestGoldenShardMapFrame(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version uint64
		shards  []ShardInfo
		want    string
	}{
		{"one shard, no replication", 1, []ShardInfo{{ID: 0, Addr: "http://a"}},
			"c55f010801010008687474703a2f2f610000"},
		{"replicated: per-shard epoch and replica lists, a multi-byte version", 900, []ShardInfo{
			{ID: 0, Addr: "http://127.0.0.1:19080", Epoch: 3, Replicas: []string{"http://127.0.0.1:19180", "http://127.0.0.1:19181"}},
			{ID: 1, Addr: "http://127.0.0.1:19081", Epoch: 1, Replicas: []string{"http://127.0.0.1:19182"}},
			{ID: 2, Addr: ""}},
			"c55f01088407030016687474703a2f2f3132372e302e302e313a3139303830030216687474703a2f2f3132372e302e302e313a313931383016687474703a2f2f3132372e302e302e313a31393138310116687474703a2f2f3132372e302e302e313a3139303831010116687474703a2f2f3132372e302e302e313a313931383202000000"},
	} {
		m, err := NewMap(tc.version, 0, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.EncodeFrame(); hex.EncodeToString(got) != tc.want {
			t.Errorf("%s: frame bytes changed\n got %x\nwant %s", tc.name, got, tc.want)
		}
		data, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Errorf("%s: bad literal: %v", tc.name, err)
			continue
		}
		back, err := DecodeMapFrame(data)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
		} else if !m.Equal(back) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, back, m)
		}
	}
}
