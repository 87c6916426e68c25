package store

import (
	"encoding/binary"
	"hash/crc32"
)

// Batch frame export: the reshard handoff (internal/cluster) ships a
// donor shard's moved keys to the recipient as the same checksummed
// batch frames the WAL persists, so the receiving side replays them
// through one hardened decode path. EncodeFrame/DecodeBatchFrame are
// the portable form of that frame — identical bytes to what
// appendBatch writes to the log: [4]payload-len [4]CRC-32(IEEE)
// [payload], payload = opBatch, count, mutations.

// EncodeFrame renders the batch as one standalone checksummed WAL
// batch frame. The frame is self-delimiting and CRC-protected, so a
// receiver detects truncation or corruption before applying anything.
func (b *Batch) EncodeFrame() []byte {
	return encodeBatch(nil, b.ops)
}

// DecodeBatchFrame parses a frame produced by EncodeFrame back into a
// Batch, validating length and checksum first; torn or tampered frames
// return ErrCorrupt and no partial batch. Trailing bytes after the
// framed payload are rejected. The batch's values alias frame, which the
// caller must leave alone until the batch is applied.
func DecodeBatchFrame(frame []byte) (*Batch, error) {
	if len(frame) < 8 {
		return nil, ErrCorrupt
	}
	n := int64(binary.LittleEndian.Uint32(frame[0:4]))
	want := binary.LittleEndian.Uint32(frame[4:8])
	if n <= 0 || 8+n != int64(len(frame)) {
		return nil, ErrCorrupt
	}
	payload := frame[8:]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrCorrupt
	}
	b := &Batch{}
	if err := replayPayload(payload, 0, func(r walRecord, _ int64) error {
		b.ops = append(b.ops, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return b, nil
}
