// Package store implements the embedded storage engine of the CSS
// platform: a durable, ordered key-value store built from an in-memory
// sorted index laid out in an arena outside the Go heap and a write-ahead
// log with checksummed records. The events index, the local cooperation
// gateways and the audit trail all persist through it. It favors
// simplicity and auditability over raw speed, in keeping with the
// deployment the paper describes.
package store

import (
	"encoding/binary"
	"runtime"
	"slices"
)

const (
	// chunkSize is the size of one arena chunk; an entry that does not
	// fit gets a chunk of its own size. Offsets are 32 bits, so one
	// entry is limited to 4 GiB, as it is by the WAL's length fields.
	chunkSize = 1 << 20

	// A node is written once, contiguously:
	//
	//	[4] key length k
	//	[4] value length v
	//	[8] value ref
	//	[k] key
	//
	// The value is not in the node. In a disk store's table the value
	// ref is the byte offset of the value inside the store's WAL file,
	// where the record that wrote it already holds it. In a memory
	// store's table it is the arena ref of a copy of the value. An
	// overwrite swings the value ref and length; the node itself never
	// moves.
	nodeHeader = 16

	// A block is blockSize arena bytes holding up to blockRefs node refs
	// of 8 bytes each, in key order.
	blockRefs = 512
	blockSize = blockRefs * 8
)

// ref addresses one arena byte: chunk index in the high 32 bits, offset
// in the chunk in the low 32.
type ref uint64

// block is one directory entry: where a block lies, the ref of its first
// node, so that the directory search reads no block, and how many refs
// it holds.
type block struct {
	at, first ref
	n         int
}

// memtable is an ordered index of string keys in two levels: blocks of
// node refs in key order, and a directory of the blocks in key order. A
// lookup is a binary search of the directory by each block's first key,
// then one of the block: about log₂ of the entries in key comparisons,
// the directory's hot upper probes among them. Nodes, keys and blocks
// live in a few large chunks mapped outside the Go heap (arena.go), and
// the directory holds no Go pointers: the garbage collector scans none
// of it, whatever the number of entries. Each node records where its
// value is (see nodeHeader). A memory table (mem) copies values into the
// arena too. No slice of a chunk may leave the Store lock: readers copy
// what they hand out. It is not safe for concurrent use; Store
// serializes access.
//
// The directory always holds at least one block; only a lone block may
// be empty. Space taken by deleted nodes, the unused slots of blocks and,
// in a memory table, overwritten values is dead until the table is
// rebuilt (see maybeRebuild), which unmaps the chunks it leaves behind.
// free unmaps the rest; a table dropped without it is freed by its
// finalizer.
type memtable struct {
	chunks [][]byte
	dir    []block
	used   int // bytes taken from the last chunk
	live   int // bytes of indexed nodes, their refs and, in a memory table, their current values
	total  int // bytes taken from all chunks, chunk tails included
	size   int
	mem    bool // values live in the arena, not in a WAL
}

func newMemtable(mem bool) *memtable {
	m := &memtable{mem: mem}
	m.reset()
	runtime.SetFinalizer(m, (*memtable).free)
	return m
}

// free unmaps every chunk; the table must not be read again.
func (m *memtable) free() {
	for _, c := range m.chunks {
		unmapChunk(c)
	}
	m.chunks, m.dir = nil, nil
}

// reset empties the table into a fresh arena: one empty block, alone in a
// chunk of its own, so an empty table holds no 1 MiB chunk.
func (m *memtable) reset() {
	m.chunks = [][]byte{mapChunk(blockSize)}
	m.dir = []block{{}}
	m.used, m.total = blockSize, blockSize
	m.live, m.size = 0, 0
}

// alloc takes n bytes from the arena, abandoning the rest of the last
// chunk when they do not fit there.
func (m *memtable) alloc(n int) (ref, []byte) {
	c := len(m.chunks) - 1
	if free := len(m.chunks[c]) - m.used; n > free {
		m.total += free
		m.chunks = append(m.chunks, mapChunk(max(n, chunkSize)))
		m.used = 0
		c++
	}
	off := m.used
	m.used += n
	m.total += n
	return ref(c)<<32 | ref(off), m.chunks[c][off : off+n : off+n]
}

// at returns the arena from r to the end of its chunk.
func (m *memtable) at(r ref) []byte { return m.chunks[r>>32][uint32(r):] }

// block returns the refs of directory entry b, the unused slots included.
func (m *memtable) block(b int) []byte { return m.at(m.dir[b].at)[:blockSize] }

func refAt(blk []byte, i int) ref { return ref(binary.LittleEndian.Uint64(blk[i*8:])) }

// node returns the node at position i of block b.
func (m *memtable) node(b, i int) []byte { return m.at(refAt(m.block(b), i)) }

func nodeKey(n []byte) []byte {
	return n[nodeHeader : nodeHeader+binary.LittleEndian.Uint32(n)]
}

// entrySize is what an indexed node takes from the arena, its value
// aside: the node and its ref.
func entrySize(n []byte) int { return nodeHeader + len(nodeKey(n)) + 8 }

func valueLen(n []byte) int { return int(binary.LittleEndian.Uint32(n[4:])) }

func valueRef(n []byte) ref { return ref(binary.LittleEndian.Uint64(n[8:])) }

func setValue(n []byte, r ref, vlen int) {
	binary.LittleEndian.PutUint32(n[4:], uint32(vlen))
	binary.LittleEndian.PutUint64(n[8:], uint64(r))
}

// value returns the arena bytes of n's value in a memory table.
func (m *memtable) value(n []byte) []byte {
	return m.at(valueRef(n))[:valueLen(n)]
}

// place returns the value ref for value: its WAL offset at in a disk
// table, a fresh arena copy in a memory table.
func (m *memtable) place(value []byte, at int64) ref {
	if !m.mem {
		return ref(at)
	}
	r, v := m.alloc(len(value))
	copy(v, value)
	m.live += len(value)
	return r
}

// newNode writes a node for key into the arena and returns its ref.
func newNode[K string | []byte](m *memtable, key K, vr ref, vlen int) ref {
	r, n := m.alloc(nodeHeader + len(key))
	binary.LittleEndian.PutUint32(n, uint32(len(key)))
	setValue(n, vr, vlen)
	copy(n[nodeHeader:], key)
	return r
}

// search returns the block and the position in it of the first node
// whose key satisfies after, which must be false for a prefix of the
// keys in order and true for the rest. The block is the last one whose
// first key fails after, or block 0, so the position may be the slot
// past the block's last ref. The comparisons convert the arena bytes in
// place; the compiler does not allocate for them.
func (m *memtable) search(after func(k []byte) bool) (b, i int) {
	lo, hi := 1, len(m.dir)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if after(nodeKey(m.at(m.dir[h].first))) {
			hi = h
		} else {
			lo = h + 1
		}
	}
	b = lo - 1
	blk := m.block(b)
	lo, hi = 0, m.dir[b].n
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if after(nodeKey(m.at(refAt(blk, h)))) {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return b, lo
}

// locate returns the block and position of key, or of the slot it would
// be inserted at, and whether key is present. It searches for the first
// key above key: the block that holds key is then the one searched,
// where a search for key itself would stop in the block before a
// block's first.
func (m *memtable) locate(key string) (b, i int, ok bool) {
	b, i = m.search(func(k []byte) bool { return string(k) > key })
	if i > 0 && string(nodeKey(m.node(b, i-1))) == key {
		return b, i - 1, true
	}
	return b, i, false
}

// find returns the node holding key, or nil.
func (m *memtable) find(key string) []byte {
	if b, i, ok := m.locate(key); ok {
		return m.node(b, i)
	}
	return nil
}

// put inserts or overwrites key, copying the key into the arena. Where
// the value goes is place's choice: a disk table keeps only at, the WAL
// offset of the value's bytes, and len(value). It reports whether the
// key was present.
func (m *memtable) put(key string, value []byte, at int64) bool {
	b, i, ok := m.locate(key)
	vr := m.place(value, at)
	if ok {
		n := m.node(b, i)
		if m.mem {
			m.live -= valueLen(n)
		}
		setValue(n, vr, len(value))
	} else {
		m.insert(b, i, newNode(m, key, vr, len(value)))
	}
	m.maybeRebuild()
	return ok
}

// insert puts node r at position i of block b. A full block splits in
// half, except that a node past its end opens a new block, so keys that
// arrive in ascending order (audit sequence numbers, per-class
// timestamps) fill their blocks. If the next block is less than half
// full, such a node goes to its front instead, so keys that arrive in
// descending order into the gap after a full block fill a block of
// their own rather than opening one each.
func (m *memtable) insert(b, i int, r ref) {
	if i == blockRefs && b+1 < len(m.dir) && m.dir[b+1].n < blockRefs/2 {
		b, i = b+1, 0
	}
	if m.dir[b].n == blockRefs {
		half := blockRefs / 2
		if i == blockRefs {
			half = blockRefs
		}
		nb, blk := m.alloc(blockSize)
		copy(blk, m.block(b)[half*8:])
		m.dir[b].n = half
		m.dir = slices.Insert(m.dir, b+1, block{at: nb, first: refAt(blk, 0), n: blockRefs - half})
		if i >= half {
			b, i = b+1, i-half
		}
	}
	d, blk := &m.dir[b], m.block(b)
	copy(blk[(i+1)*8:(d.n+1)*8], blk[i*8:d.n*8])
	binary.LittleEndian.PutUint64(blk[i*8:], uint64(r))
	d.n++
	if i == 0 {
		d.first = r
	}
	m.size++
	m.live += entrySize(m.at(r))
}

// del removes key and reports whether it was present. A block it leaves
// empty leaves the directory, unless it is the only one.
func (m *memtable) del(key string) bool {
	b, i, ok := m.locate(key)
	if !ok {
		return false
	}
	n := m.node(b, i)
	m.live -= entrySize(n)
	if m.mem {
		m.live -= valueLen(n)
	}
	d, blk := &m.dir[b], m.block(b)
	copy(blk[i*8:], blk[(i+1)*8:d.n*8])
	d.n--
	switch {
	case d.n == 0 && len(m.dir) > 1:
		m.dir = slices.Delete(m.dir, b, b+1)
	case i == 0 && d.n > 0:
		d.first = refAt(blk, 0)
	}
	m.size--
	m.maybeRebuild()
	return true
}

// maybeRebuild rebuilds the table once the dead bytes exceed both the
// live bytes and one chunk, so churn (the outbox's put+delete, a memory
// store's overwrites) costs at most twice the live data plus a chunk.
// The copy is linear and is paid for by the writes that made the dead
// bytes.
func (m *memtable) maybeRebuild() {
	if dead := m.total - m.live; dead > m.live && dead > chunkSize {
		m.rebuild()
	}
}

// rebuild copies the table in key order into full blocks of a fresh
// arena. The old chunks are unmapped as soon as it is done: nothing
// outside the Store lock holds a slice of them.
func (m *memtable) rebuild() {
	old := *m
	m.reset()
	for b := range old.dir {
		for i := 0; i < old.dir[b].n; i++ {
			n := old.node(b, i)
			vr := valueRef(n)
			if m.mem {
				vr = m.place(old.value(n), 0)
			}
			last := len(m.dir) - 1
			m.insert(last, m.dir[last].n, newNode(m, nodeKey(n), vr, valueLen(n)))
		}
	}
	old.free()
}

// walk visits the nodes with key ≥ from in order until fn returns false.
func (m *memtable) walk(from string, fn func(n []byte) bool) {
	b, i := m.search(func(k []byte) bool { return string(k) >= from })
	for ; b < len(m.dir); b, i = b+1, 0 {
		for blk := m.block(b); i < m.dir[b].n; i++ {
			if !fn(m.at(refAt(blk, i))) {
				return
			}
		}
	}
}

func hasPrefix(k []byte, prefix string) bool {
	return len(k) >= len(prefix) && string(k[:len(prefix)]) == prefix
}

// last returns the node of the greatest key with the given prefix, or
// nil: the node before the first key whose first len(prefix) bytes
// exceed prefix.
func (m *memtable) last(prefix string) []byte {
	b, i := m.search(func(k []byte) bool { return string(k[:min(len(k), len(prefix))]) > prefix })
	if i == 0 {
		return nil
	}
	if n := m.node(b, i-1); hasPrefix(nodeKey(n), prefix) {
		return n
	}
	return nil
}
