// Package store implements the embedded storage engine of the CSS
// platform: a durable, ordered key-value store built from an in-memory
// skip list laid out in a pointer-free arena and a write-ahead log with
// checksummed records. The events index, the local cooperation gateways
// and the audit trail all persist through it. It favors simplicity and
// auditability over raw speed, in keeping with the deployment the paper
// describes.
package store

import (
	"encoding/binary"
	"math/rand"
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
	//	[v] first value
	//
	// An overwrite appends the new value to the arena and swings the
	// value ref and length; the node itself never moves.
	nodeHeader = 17
	linkSize   = 8
)

// ref addresses one arena byte: chunk index in the high 32 bits, offset
// in the chunk in the low 32. The head node sits at ref 0 and nothing
// links to it, so 0 is also the nil link.
type ref uint64

// skipList is an ordered string→[]byte map whose nodes, keys and values
// live in a few large []byte chunks: the garbage collector sees one
// pointer-free object per chunk, whatever the number of entries. The
// list copies what it is given and hands out slices of the arena, which
// callers must not write to. It is not safe for concurrent use; Store
// serializes access.
//
// Space taken by deleted nodes and overwritten values is dead until the
// list is rebuilt (see maybeRebuild); chunks a rebuild leaves behind
// are freed once no slice handed out earlier refers to them.
type skipList struct {
	chunks [][]byte
	used   int // bytes taken from the last chunk
	live   int // bytes of linked nodes and their current values
	total  int // bytes taken from all chunks, chunk tails included
	level  int
	size   int
	rnd    *rand.Rand
	// scratch is the predecessor buffer for put/del. Mutators are
	// serialized by the Store's write lock, so one buffer suffices.
	scratch [maxLevel]ref
}

func newSkipList(seed int64) *skipList {
	l := &skipList{rnd: rand.New(rand.NewSource(seed))}
	l.reset()
	return l
}

// reset empties the list into a fresh arena: the head node alone in a
// full chunk of its own size, so an empty list holds no 1 MiB block.
func (l *skipList) reset() {
	head := make([]byte, nodeHeader+maxLevel*linkSize)
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
		l.chunks = append(l.chunks, make([]byte, max(n, chunkSize)))
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

func valueLen(n []byte) int { return int(binary.LittleEndian.Uint32(n[4:])) }

// value returns n's current value, capped so that appending to it cannot
// reach the bytes behind it.
func (l *skipList) value(n []byte) []byte {
	return l.at(ref(binary.LittleEndian.Uint64(n[8:])))[:valueLen(n):valueLen(n)]
}

func setValue(n []byte, r ref, vlen int) {
	binary.LittleEndian.PutUint32(n[4:], uint32(vlen))
	binary.LittleEndian.PutUint64(n[8:], uint64(r))
}

// insert writes a node of height h after the predecessors in prev.
func insert[K string | []byte](l *skipList, prev []ref, h int, key K, value []byte) {
	links := nodeHeader + h*linkSize
	r, n := l.alloc(links + len(key) + len(value))
	binary.LittleEndian.PutUint32(n, uint32(len(key)))
	n[16] = byte(h)
	copy(n[links:], key)
	copy(n[links+len(key):], value)
	setValue(n, r+ref(links+len(key)), len(value))
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

// put inserts or overwrites key, copying both key and value into the
// arena. It returns the previous value (nil, false when the key was new).
func (l *skipList) put(key string, value []byte) ([]byte, bool) {
	update := l.scratch[:]
	if n := l.find(key, update); n != nil {
		old := l.value(n)
		r, v := l.alloc(len(value))
		copy(v, value)
		setValue(n, r, len(value))
		l.live += len(value) - len(old)
		l.maybeRebuild()
		return old, true
	}
	h := l.randomLevel()
	for ; l.level < h; l.level++ {
		update[l.level] = 0
	}
	insert(l, update, h, key, value)
	return nil, false
}

// get returns the value stored under key.
func (l *skipList) get(key string) ([]byte, bool) {
	if n := l.find(key, nil); n != nil {
		return l.value(n), true
	}
	return nil, false
}

// del removes key and returns the removed value (nil, false when the
// key was absent).
func (l *skipList) del(key string) ([]byte, bool) {
	update := l.scratch[:]
	n := l.find(key, update)
	if n == nil {
		return nil, false
	}
	old := l.value(n)
	for i := 0; i < height(n); i++ {
		setNext(l.at(update[i]), i, next(n, i))
	}
	for l.level > 1 && next(l.at(0), l.level-1) == 0 {
		l.level--
	}
	l.size--
	l.live -= nodeHeader + height(n)*linkSize + len(nodeKey(n)) + len(old)
	l.maybeRebuild()
	return old, true
}

// maybeRebuild copies the list in key order into a fresh arena once the
// dead bytes exceed both the live bytes and one chunk, so churn (the
// outbox's put+delete, a reshard's mass delete) costs at most twice the
// live data plus a chunk. The copy is linear and is paid for by the
// writes that made the dead bytes. Slices handed out before keep their
// old chunks alive and stay valid.
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
		insert(l, tail[:], h, nodeKey(n), old.value(n))
		for i := 0; i < h; i++ {
			tail[i] = next(l.at(tail[i]), i)
		}
		x = next(n, 0)
	}
}

// walk visits nodes with key ≥ from in order until fn returns false,
// passing the arena's key and value bytes.
func (l *skipList) walk(from string, fn func(key, value []byte) bool) {
	for x := next(l.seek(from, nil), 0); x != 0; {
		n := l.at(x)
		if !fn(nodeKey(n), l.value(n)) {
			return
		}
		x = next(n, 0)
	}
}

// ascend visits keys ≥ from in order until fn returns false. Each
// visited key is converted to a string: one small allocation.
func (l *skipList) ascend(from string, fn func(key string, value []byte) bool) {
	l.walk(from, func(k, v []byte) bool { return fn(string(k), v) })
}

// ascendPrefix visits all keys with the given prefix in order.
func (l *skipList) ascendPrefix(prefix string, fn func(key string, value []byte) bool) {
	l.walk(prefix, func(k, v []byte) bool {
		return hasPrefix(k, prefix) && fn(string(k), v)
	})
}

func hasPrefix(k []byte, prefix string) bool {
	return len(k) >= len(prefix) && string(k[:len(prefix)]) == prefix
}

// last returns the greatest key with the given prefix and its value: one
// walk right along the levels, past every key whose first len(prefix)
// bytes do not exceed prefix.
func (l *skipList) last(prefix string) (string, []byte, bool) {
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
	if k := nodeKey(n); x != 0 && hasPrefix(k, prefix) {
		return string(k), l.value(n), true
	}
	return "", nil, false
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
