// Binary frame codec for the shard map, written over internal/frame.
// The cluster layer owns frame type 8; its field layout is tabulated
// in DESIGN.md §8.
//
// The shard map's per-shard epoch and replica list (both zero/empty
// outside replicated deployments) ride in the same versioned frame, so
// the failover protocol's primary claim is published through the exact
// channel clients already refresh from.
package cluster

import (
	"encoding/binary"
	"errors"

	"repro/internal/frame"
)

// EncodeFrame renders the map as a binary shard-map frame, sized up
// front and filled in one allocation.
func (m *Map) EncodeFrame() []byte {
	size := frame.HeaderLen +
		frame.UvarintLen(m.version) +
		frame.UvarintLen(uint64(len(m.shards)))
	for _, s := range m.shards {
		size += frame.UvarintLen(uint64(s.ID)) + frame.StringLen(s.Addr) +
			frame.UvarintLen(s.Epoch) + frame.UvarintLen(uint64(len(s.Replicas)))
		for _, r := range s.Replicas {
			size += frame.StringLen(r)
		}
	}
	dst := make([]byte, 0, size)
	dst = frame.AppendHeader(dst, frame.ShardMap)
	dst = binary.AppendUvarint(dst, m.version)
	dst = binary.AppendUvarint(dst, uint64(len(m.shards)))
	for _, s := range m.shards {
		dst = binary.AppendUvarint(dst, uint64(s.ID))
		dst = frame.AppendString(dst, s.Addr)
		dst = binary.AppendUvarint(dst, s.Epoch)
		dst = binary.AppendUvarint(dst, uint64(len(s.Replicas)))
		for _, r := range s.Replicas {
			dst = frame.AppendString(dst, r)
		}
	}
	return dst
}

// DecodeMapFrame parses a shard-map frame. All NewMap validation
// (non-empty, ids exactly 0..N-1) applies, so a frame that decodes
// cleanly always yields a routable map.
func DecodeMapFrame(data []byte) (*Map, error) {
	r := frame.Read(data, frame.ShardMap)
	version := r.Uvarint()
	// A shard entry is at least four bytes: a one-byte id, a zero-length
	// addr, a zero epoch and a zero replica count.
	shards := make([]ShardInfo, r.Count(4))
	for i := range shards {
		s := &shards[i]
		id := r.Uvarint()
		if id >= uint64(len(shards)) {
			return nil, errors.New("cluster: shard map frame has a shard id past its count")
		}
		s.ID, s.Addr, s.Epoch = ShardID(id), r.String(), r.Uvarint()
		// A replica entry is at least its one-byte length.
		for n := r.Count(1); n > 0; n-- {
			s.Replicas = append(s.Replicas, r.String())
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return NewMap(version, 0, shards)
}
