// Package store implements the embedded storage engine of the CSS
// platform: a durable, ordered key-value store built from an in-memory
// skip list and a write-ahead log with checksummed records. The events
// index, the local cooperation gateways and the audit trail all persist
// through it. It favors simplicity and auditability over raw speed, in
// keeping with the deployment the paper describes.
package store

import (
	"math/rand"
	"strings"
	"sync"
)

const (
	maxLevel    = 24
	levelChance = 4 // 1/levelChance probability of promoting a node a level
)

// skipNode is one node of the ordered index.
type skipNode struct {
	key   string
	value []byte
	next  []*skipNode
	// tower backs next for the common low levels, so inserting a node
	// costs one allocation instead of two. With 1/4 promotion, fewer
	// than 0.4% of nodes outgrow it.
	tower [4]*skipNode
}

// skipList is an ordered string→[]byte map. It is not safe for concurrent
// use; Store serializes access.
type skipList struct {
	head  *skipNode
	level int
	size  int
	rnd   *rand.Rand
	// scratch is the predecessor buffer for put/del. Mutators are
	// serialized by the Store's write lock, so one buffer suffices; it
	// may pin a just-deleted node until the next mutation, which is
	// harmless.
	scratch [maxLevel]*skipNode
}

func newSkipList(seed int64) *skipList {
	return &skipList{
		head:  &skipNode{next: make([]*skipNode, maxLevel)},
		level: 1,
		rnd:   rand.New(rand.NewSource(seed)),
	}
}

func (l *skipList) randomLevel() int {
	level := 1
	for level < maxLevel && l.rnd.Intn(levelChance) == 0 {
		level++
	}
	return level
}

// findPredecessors fills update with the rightmost node strictly before
// key at every level and returns the candidate node (which may or may not
// match key).
func (l *skipList) findPredecessors(key string, update []*skipNode) *skipNode {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		update[i] = x
	}
	return x.next[0]
}

// put inserts or overwrites key. It returns the previous value (nil,
// false when the key was new).
func (l *skipList) put(key string, value []byte) ([]byte, bool) {
	update := l.scratch[:]
	x := l.findPredecessors(key, update)
	if x != nil && x.key == key {
		old := x.value
		x.value = value
		return old, true
	}
	level := l.randomLevel()
	if level > l.level {
		for i := l.level; i < level; i++ {
			update[i] = l.head
		}
		l.level = level
	}
	n := &skipNode{key: key, value: value}
	if level <= len(n.tower) {
		n.next = n.tower[:level]
	} else {
		n.next = make([]*skipNode, level)
	}
	for i := 0; i < level; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	l.size++
	return nil, false
}

// get returns the value stored under key.
func (l *skipList) get(key string) ([]byte, bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
	}
	x = x.next[0]
	if x != nil && x.key == key {
		return x.value, true
	}
	return nil, false
}

// del removes key and returns the removed value (nil, false when the
// key was absent).
func (l *skipList) del(key string) ([]byte, bool) {
	update := l.scratch[:]
	x := l.findPredecessors(key, update)
	if x == nil || x.key != key {
		return nil, false
	}
	for i := 0; i < l.level; i++ {
		if update[i].next[i] != x {
			break
		}
		update[i].next[i] = x.next[i]
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	l.size--
	return x.value, true
}

// ascend visits keys ≥ from in order until fn returns false.
func (l *skipList) ascend(from string, fn func(key string, value []byte) bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < from {
			x = x.next[i]
		}
	}
	for x = x.next[0]; x != nil; x = x.next[0] {
		if !fn(x.key, x.value) {
			return
		}
	}
}

// ascendPrefix visits all keys with the given prefix in order.
func (l *skipList) ascendPrefix(prefix string, fn func(key string, value []byte) bool) {
	l.ascend(prefix, func(k string, v []byte) bool {
		if !strings.HasPrefix(k, prefix) {
			return false
		}
		return fn(k, v)
	})
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
