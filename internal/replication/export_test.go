package replication

// encodeData renders one data frame: its head, then the segment.
func encodeData(store string, epoch uint64, offset int64, seg []byte) []byte {
	dst := make([]byte, 0, dataHeadLen(store, epoch, offset, len(seg))+len(seg))
	return append(appendDataHead(dst, store, epoch, offset, len(seg)), seg...)
}

// Epoch returns the highest primary epoch seen.
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }
