package resilience

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/event"
	"repro/internal/store"
)

// Outbox key prefixes. Pending entries live under "q/" keyed by a
// zero-padded sequence number (so lexicographic order is drain order),
// the dedup markers under "k/" keyed by producer+source id, and
// dead-lettered entries under "x/".
const (
	outboxQueuePrefix = "q/"
	outboxDedupPrefix = "k/"
	outboxDeadPrefix  = "x/"
)

// Outbox is the producer-side durable publish queue: when the data
// controller is unreachable, notifications are parked here (one
// checksummed WAL batch per mutation via store.Batch, so a crash can
// never persist half an entry) and drained later with at-least-once
// semantics. Exactly-once effect at the events index follows from the
// controller's publish idempotency on (producer, source id) — replaying
// a drained-but-unacked entry returns the original global id without a
// duplicate index record.
//
// Enqueue dedups on (producer, source id) too: handing the same
// notification to the outbox twice queues it once.
//
// Safe for concurrent use; durable when backed by a persistent store.
type Outbox struct {
	st      *store.Store
	metrics *Metrics

	mu    sync.Mutex
	seq   uint64 // last assigned sequence number
	depth int    // pending entries
	dead  int    // dead-lettered entries
}

// OpenOutbox opens (or recovers) the outbox stored in st. Pending
// entries from a previous run are preserved; the caller drains them via
// Next/Ack.
func OpenOutbox(st *store.Store, m *Metrics) (*Outbox, error) {
	o := &Outbox{st: st, metrics: m}
	err := o.st.View(func(tx store.Tx) error {
		tx.AscendKeys(outboxQueuePrefix, "", func(key string) bool {
			if seq, err := parseOutboxSeq(key); err == nil && seq > o.seq {
				o.seq = seq
			}
			o.depth++
			return true
		})
		tx.AscendKeys(outboxDeadPrefix, "", func(key string) bool {
			if seq, err := parseOutboxSeq(key); err == nil && seq > o.seq {
				o.seq = seq
			}
			o.dead++
			return true
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resilience: open outbox: %w", err)
	}
	m.outbox("open", o.depth)
	return o, nil
}

// queueKey formats the store key of sequence number seq under prefix.
func queueKey(prefix string, seq uint64) string {
	return fmt.Sprintf("%s%016x", prefix, seq)
}

// parseOutboxSeq recovers the sequence number from a queue or dead key.
func parseOutboxSeq(key string) (uint64, error) {
	i := strings.IndexByte(key, '/')
	if i < 0 {
		return 0, fmt.Errorf("resilience: malformed outbox key %q", key)
	}
	return strconv.ParseUint(key[i+1:], 16, 64)
}

// dedupKey canonicalizes a notification's origin. The separator cannot
// occur in identifiers (they are validated XML attribute values).
func dedupKey(n *event.Notification) string {
	return outboxDedupPrefix + string(n.Producer) + "\x1f" + string(n.SourceID)
}

// Enqueue parks a notification for deferred publication. It reports
// false when an entry for the same (producer, source id) is already
// queued — the replay would be deduplicated by the controller anyway,
// so the outbox does not store it twice.
func (o *Outbox) Enqueue(n *event.Notification) (bool, error) {
	body, err := event.EncodeNotification(n)
	if err != nil {
		return false, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	dk := dedupKey(n)
	if ok, err := o.st.Has(dk); err != nil {
		return false, err
	} else if ok {
		o.metrics.outbox("dedup", o.depth)
		return false, nil
	}
	o.seq++
	qk := queueKey(outboxQueuePrefix, o.seq)
	var b store.Batch
	b.Put(qk, body)
	b.Put(dk, []byte(qk))
	if err := o.st.Apply(&b); err != nil {
		o.seq--
		return false, err
	}
	o.depth++
	o.metrics.outbox("enqueue", o.depth)
	return true, nil
}

// Next returns the oldest pending notification and its sequence number,
// or ok=false when the outbox is empty. Entries that fail to decode
// (a corrupt tail that survived WAL recovery) are dead-lettered and
// skipped rather than wedging the queue.
func (o *Outbox) Next() (n *event.Notification, seq uint64, ok bool, err error) {
	for {
		var key string
		var val []byte
		err = o.st.AscendPrefix(outboxQueuePrefix, func(k string, v []byte) bool {
			key, val = k, v
			return false
		})
		if err != nil || key == "" {
			return nil, 0, false, err
		}
		if seq, err = parseOutboxSeq(key); err == nil {
			if n, err = event.DecodeNotification(val); err == nil {
				return n, seq, true, nil
			}
		}
		if derr := o.deadLetter(seq, key, val); derr != nil {
			return nil, 0, false, derr
		}
	}
}

// Ack removes a drained entry after its publish succeeded. The batch
// removes the payload and the dedup marker together, so a crash leaves
// either both (replayed, deduped by the controller) or neither.
func (o *Outbox) Ack(seq uint64, n *event.Notification) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	var b store.Batch
	b.Delete(queueKey(outboxQueuePrefix, seq))
	b.Delete(dedupKey(n))
	if err := o.st.Apply(&b); err != nil {
		return err
	}
	if o.depth > 0 {
		o.depth--
	}
	o.metrics.outbox("drain", o.depth)
	return nil
}

// Reject dead-letters an entry that failed permanently (e.g. the
// controller rejected the producer or class): it moves the payload to
// the dead prefix so the queue never wedges on a poisoned entry while
// the data stays recoverable for an operator.
func (o *Outbox) Reject(seq uint64, n *event.Notification) error {
	body, err := event.EncodeNotification(n)
	if err != nil {
		body = nil // keep the raw move best-effort; the entry is poisoned anyway
	}
	return o.deadLetter(seq, queueKey(outboxQueuePrefix, seq), body)
}

// deadLetter moves one queue entry to the dead prefix.
func (o *Outbox) deadLetter(seq uint64, key string, val []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	var b store.Batch
	if val != nil {
		b.Put(queueKey(outboxDeadPrefix, seq), val)
	}
	b.Delete(key)
	if err := o.st.Apply(&b); err != nil {
		return err
	}
	if o.depth > 0 {
		o.depth--
	}
	o.dead++
	o.metrics.outbox("dead", o.depth)
	return nil
}

// Depth returns the number of pending entries.
func (o *Outbox) Depth() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.depth
}

// Dead returns the number of dead-lettered entries.
func (o *Outbox) Dead() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.dead
}
