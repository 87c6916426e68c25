package store

import (
	"sync/atomic"
	"syscall"
)

// The memtable's chunks are anonymous private mappings, not Go heap: the
// collector neither scans them nor counts them toward its heap goal, so a
// heap that is mostly arena does not grow to twice the arena between
// collections. The price is that they are freed by hand (memtable.free),
// and that no slice of one may outlive the table that mapped it: every
// read a Store or Tx hands out is a copy. This is the one file that maps
// and unmaps memory.

// mappedBytes is the number of arena bytes mapped right now, across all
// tables. Tests read it to see that chunks are returned.
var mappedBytes atomic.Int64

// mapChunk returns n zeroed bytes outside the Go heap. Like make, it
// panics when the memory cannot be had.
func mapChunk(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic("store: map arena chunk: " + err.Error())
	}
	mappedBytes.Add(int64(n))
	return b
}

// unmapChunk returns a chunk mapChunk made; b must be that slice whole.
func unmapChunk(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("store: unmap arena chunk: " + err.Error())
	}
	mappedBytes.Add(-int64(len(b)))
}
