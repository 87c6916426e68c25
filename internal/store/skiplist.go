// Package store implements the embedded storage engine of the CSS
// platform: a durable, ordered key-value store built from an in-memory
// skip list laid out in an arena outside the Go heap and a write-ahead
// log with checksummed records. The events index, the local cooperation
// gateways and the audit trail all persist through it. It favors
// simplicity and auditability over raw speed, in keeping with the
// deployment the paper describes.
package store

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
)

const (
	maxLevel    = 24
	levelChance = 4 // 1/levelChance probability of promoting a node a level

	// chunkSize is the size of one arena block; an entry that does not
	// fit gets a block of its own size. Offsets are 32 bits, so one
	// entry is limited to 4 GiB, as it is by the WAL's length fields.
	chunkSize = 1 << 20

	// A node is written once, contiguously:
	//
	//	[4] key length k
	//	[4] value length v
	//	[8] value ref
	//	[1] height h
	//	[8h] next links, level 0 first
	//	[k] key
	//
	// The value is not in the node. In a disk store's list the value ref
	// is the byte offset of the value inside the store's WAL file, where
	// the record that wrote it already holds it. In a memory store's list
	// it is the arena ref of a copy of the value. An overwrite swings the
	// value ref and length; the node itself never moves.
	nodeHeader = 17
	linkSize   = 8
)

// ref addresses one arena byte: chunk index in the high 32 bits, offset
// in the chunk in the low 32. The head node sits at ref 0 and nothing
// links to it, so 0 is also the nil link.
type ref uint64

// skipList is an ordered index of string keys whose nodes and keys live
// in a few large chunks mapped outside the Go heap (arena.go): the
// garbage collector sees none of them, whatever the number of entries.
// Each node records where its value is (see nodeHeader). A memory list
// (mem) copies values into the arena too. No slice of a chunk may leave
// the Store lock: readers copy what they hand out. It is not safe for
// concurrent use; Store serializes access.
//
// Space taken by deleted nodes, and in a memory list by overwritten
// values, is dead until the list is rebuilt (see maybeRebuild), which
// unmaps the chunks it leaves behind. free unmaps the rest; a list
// dropped without it is freed by its finalizer.
type skipList struct {
	chunks [][]byte
	used   int // bytes taken from the last chunk
	live   int // bytes of linked nodes and, in a memory list, their current values
	total  int // bytes taken from all chunks, chunk tails included
	level  int
	size   int
	mem    bool // values live in the arena, not in a WAL
	rnd    *rand.Rand
	// scratch is the predecessor buffer for put/del. Mutators are
	// serialized by the Store's write lock, so one buffer suffices.
	scratch [maxLevel]ref
}

func newSkipList(seed int64, mem bool) *skipList {
	l := &skipList{rnd: rand.New(rand.NewSource(seed)), mem: mem}
	l.reset()
	runtime.SetFinalizer(l, (*skipList).free)
	return l
}

// free unmaps every chunk; the list must not be read again.
func (l *skipList) free() {
	for _, c := range l.chunks {
		unmapChunk(c)
	}
	l.chunks = nil
}

// reset empties the list into a fresh arena: the head node alone in a
// chunk of its own, so an empty list holds no 1 MiB block.
func (l *skipList) reset() {
	head := mapChunk(nodeHeader + maxLevel*linkSize)
	head[16] = maxLevel
	l.chunks = [][]byte{head}
	l.used, l.live, l.total = len(head), len(head), len(head)
	l.level, l.size = 1, 0
}

// alloc takes n bytes from the arena, abandoning the rest of the last
// chunk when they do not fit there.
func (l *skipList) alloc(n int) (ref, []byte) {
	c := len(l.chunks) - 1
	if free := len(l.chunks[c]) - l.used; n > free {
		l.total += free
		l.chunks = append(l.chunks, mapChunk(max(n, chunkSize)))
		l.used = 0
		c++
	}
	off := l.used
	l.used += n
	l.total += n
	return ref(c)<<32 | ref(off), l.chunks[c][off : off+n : off+n]
}

// at returns the arena from r to the end of its chunk.
func (l *skipList) at(r ref) []byte { return l.chunks[r>>32][uint32(r):] }

func next(n []byte, i int) ref {
	return ref(binary.LittleEndian.Uint64(n[nodeHeader+i*linkSize:]))
}

func setNext(n []byte, i int, r ref) {
	binary.LittleEndian.PutUint64(n[nodeHeader+i*linkSize:], uint64(r))
}

func height(n []byte) int { return int(n[16]) }

func nodeKey(n []byte) []byte {
	off := nodeHeader + height(n)*linkSize
	return n[off : off+int(binary.LittleEndian.Uint32(n))]
}

// nodeSize is what a node takes from the arena, its value aside.
func nodeSize(n []byte) int { return nodeHeader + height(n)*linkSize + len(nodeKey(n)) }

func valueLen(n []byte) int { return int(binary.LittleEndian.Uint32(n[4:])) }

func valueRef(n []byte) ref { return ref(binary.LittleEndian.Uint64(n[8:])) }

func setValue(n []byte, r ref, vlen int) {
	binary.LittleEndian.PutUint32(n[4:], uint32(vlen))
	binary.LittleEndian.PutUint64(n[8:], uint64(r))
}

// value returns the arena bytes of n's value in a memory list.
func (l *skipList) value(n []byte) []byte {
	return l.at(valueRef(n))[:valueLen(n)]
}

// place returns the value ref for value: its WAL offset at in a disk
// list, a fresh arena copy in a memory list.
func (l *skipList) place(value []byte, at int64) ref {
	if !l.mem {
		return ref(at)
	}
	r, v := l.alloc(len(value))
	copy(v, value)
	l.live += len(value)
	return r
}

// insert writes a node of height h after the predecessors in prev.
func insert[K string | []byte](l *skipList, prev []ref, h int, key K, vr ref, vlen int) {
	links := nodeHeader + h*linkSize
	r, n := l.alloc(links + len(key))
	binary.LittleEndian.PutUint32(n, uint32(len(key)))
	n[16] = byte(h)
	copy(n[links:], key)
	setValue(n, vr, vlen)
	for i := 0; i < h; i++ {
		p := l.at(prev[i])
		setNext(n, i, next(p, i))
		setNext(p, i, r)
	}
	l.size++
	l.live += len(n)
}

func (l *skipList) randomLevel() int {
	level := 1
	for level < maxLevel && l.rnd.Intn(levelChance) == 0 {
		level++
	}
	return level
}

// seek returns the rightmost node strictly before key (the head when
// there is none), recording its ref for every level in update when
// update is not nil. The comparison converts the arena bytes in place;
// the compiler does not allocate for it.
func (l *skipList) seek(key string, update []ref) []byte {
	x := ref(0)
	n := l.at(x)
	for i := l.level - 1; i >= 0; i-- {
		for nx := next(n, i); nx != 0; nx = next(n, i) {
			nn := l.at(nx)
			if string(nodeKey(nn)) >= key {
				break
			}
			x, n = nx, nn
		}
		if update != nil {
			update[i] = x
		}
	}
	return n
}

// find returns the node holding key, or nil.
func (l *skipList) find(key string, update []ref) []byte {
	if x := next(l.seek(key, update), 0); x != 0 {
		if n := l.at(x); string(nodeKey(n)) == key {
			return n
		}
	}
	return nil
}

// put inserts or overwrites key, copying the key into the arena. Where
// the value goes is place's choice: a disk list keeps only at, the WAL
// offset of the value's bytes, and len(value). It reports whether the
// key was present.
func (l *skipList) put(key string, value []byte, at int64) bool {
	update := l.scratch[:]
	n := l.find(key, update)
	vr := l.place(value, at)
	if n != nil {
		if l.mem {
			l.live -= valueLen(n)
		}
		setValue(n, vr, len(value))
		l.maybeRebuild()
		return true
	}
	h := l.randomLevel()
	for ; l.level < h; l.level++ {
		update[l.level] = 0
	}
	insert(l, update, h, key, vr, len(value))
	return false
}

// del removes key and reports whether it was present.
func (l *skipList) del(key string) bool {
	update := l.scratch[:]
	n := l.find(key, update)
	if n == nil {
		return false
	}
	for i := 0; i < height(n); i++ {
		setNext(l.at(update[i]), i, next(n, i))
	}
	for l.level > 1 && next(l.at(0), l.level-1) == 0 {
		l.level--
	}
	l.size--
	l.live -= nodeSize(n)
	if l.mem {
		l.live -= valueLen(n)
	}
	l.maybeRebuild()
	return true
}

// maybeRebuild copies the list in key order into a fresh arena once the
// dead bytes exceed both the live bytes and one chunk, so churn (the
// outbox's put+delete, a memory store's overwrites) costs at most twice
// the live data plus a chunk. The copy is linear and is paid for by the
// writes that made the dead bytes. The old chunks are unmapped as soon
// as it is done: nothing outside the Store lock holds a slice of them.
func (l *skipList) maybeRebuild() {
	if dead := l.total - l.live; dead <= l.live || dead <= chunkSize {
		return
	}
	old := *l
	l.reset()
	var tail [maxLevel]ref
	for x := next(old.at(0), 0); x != 0; {
		n := old.at(x)
		h := height(n)
		l.level = max(l.level, h)
		vr := valueRef(n)
		if l.mem {
			vr = l.place(old.value(n), 0)
		}
		insert(l, tail[:], h, nodeKey(n), vr, valueLen(n))
		for i := 0; i < h; i++ {
			tail[i] = next(l.at(tail[i]), i)
		}
		x = next(n, 0)
	}
	old.free()
}

// walk visits the nodes with key ≥ from in order until fn returns false.
func (l *skipList) walk(from string, fn func(n []byte) bool) {
	for x := next(l.seek(from, nil), 0); x != 0; {
		n := l.at(x)
		if !fn(n) {
			return
		}
		x = next(n, 0)
	}
}

func hasPrefix(k []byte, prefix string) bool {
	return len(k) >= len(prefix) && string(k[:len(prefix)]) == prefix
}

// last returns the node of the greatest key with the given prefix, or
// nil: one walk right along the levels, past every key whose first
// len(prefix) bytes do not exceed prefix.
func (l *skipList) last(prefix string) []byte {
	x := ref(0)
	n := l.at(x)
	for i := l.level - 1; i >= 0; i-- {
		for nx := next(n, i); nx != 0; nx = next(n, i) {
			nn := l.at(nx)
			if k := nodeKey(nn); string(k[:min(len(k), len(prefix))]) > prefix {
				break
			}
			x, n = nx, nn
		}
	}
	if x != 0 && hasPrefix(nodeKey(n), prefix) {
		return n
	}
	return nil
}

// seedCounter derives distinct deterministic seeds for skip lists so that
// independent stores don't share promotion sequences.
var seedCounter struct {
	sync.Mutex
	n int64
}

func nextSeed() int64 {
	seedCounter.Lock()
	defer seedCounter.Unlock()
	seedCounter.n++
	return seedCounter.n
}
