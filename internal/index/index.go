// Package index implements the events index of the data controller: the
// store of all notification messages published by the producers (paper
// §4). Per the privacy regulations, "the identifying information of the
// person specified in the notification is stored in encrypted form": the
// person identifier is sealed at rest and indexed through a deterministic
// keyed pseudonym, so the index supports "all events of person X" queries
// without ever holding the identifier in the clear.
//
// The index answers the event index inquiries of §5.2: a consumer may
// query it to obtain the list of notifications it is authorized to see
// without necessarily subscribing (the authorization check itself is the
// controller's job; the index is the storage and query layer).
package index

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/jsonx"
	"repro/internal/store"
)

// ErrNotFound reports an unknown event id.
var ErrNotFound = errors.New("index: not found")

// Index is the notification store. Safe for concurrent use; durable when
// backed by a persistent store. Person identifiers are sealed at rest
// and looked up through their keyed pseudonym. Every read goes to the
// store and decrypts and decodes the record anew, so the controller
// holds no plaintext person identifier beyond the request reading it.
type Index struct {
	st   *store.Store
	keys *crypto.Keyring
}

// record is the persisted form of a notification. PersonID holds the
// sealed ciphertext; Encrypted is false only on records written by the
// retired plaintext baseline of experiment E5, which still read back.
type record struct {
	ID          event.GlobalID   `json:"id"`
	Class       event.ClassID    `json:"class"`
	PersonID    string           `json:"personId"`
	Encrypted   bool             `json:"encrypted"`
	Summary     string           `json:"summary"`
	OccurredAt  time.Time        `json:"occurredAt"`
	Producer    event.ProducerID `json:"producer"`
	PublishedAt time.Time        `json:"publishedAt"`
}

// New creates an index on st; keys seals the person identifiers.
func New(st *store.Store, keys *crypto.Keyring) *Index {
	return &Index{st: st, keys: keys}
}

// Pseudonym returns the keyed pseudonym routing and partitioning use
// for a person identifier, the same one the person index is keyed by.
func (ix *Index) Pseudonym(person string) string {
	return ix.keys.Pseudonym(person)
}

// Put stores a published notification. The notification must carry its
// controller-assigned global ID. Put is idempotent on the global ID.
// Put is PutStaged followed immediately by the commit barrier.
func (ix *Index) Put(n *event.Notification) error {
	c, err := ix.PutStaged(n)
	if err != nil {
		return err
	}
	return c.Wait()
}

// batchPool recycles the batch (and its ops slice) across puts.
var batchPool = sync.Pool{New: func() any { return new(store.Batch) }}

// PutStaged stores a published notification but returns before the
// store's fsync barrier: the record and its secondary keys are visible
// and in the WAL, and the returned Commit's Wait makes them durable.
// The controller overlaps that fsync with audit append and bus fan-out,
// acking the publisher only after the barrier — exactly-once indexing
// is unaffected because a crash before the barrier loses the whole
// batch and the unacked publisher retries under the same global ID.
func (ix *Index) PutStaged(n *event.Notification) (store.Commit, error) {
	return ix.PutStagedWith(n, ix.keys.Pseudonym(n.PersonID))
}

// PutStagedWith is PutStaged for a caller that already holds the
// person's pseudonym (Pseudonym(n.PersonID)), as the controller does
// once it has checked the person's shard, so a publish computes the
// HMAC once.
func (ix *Index) PutStagedWith(n *event.Notification, pseudonym string) (store.Commit, error) {
	if n.ID == "" {
		return store.Commit{}, errors.New("index: notification without global id")
	}
	if err := n.Class.Validate(); err != nil {
		return store.Commit{}, err
	}
	sealed, err := ix.keys.Seal([]byte(n.PersonID))
	if err != nil {
		return store.Commit{}, err
	}
	data := appendRecordJSON(n, sealed)
	// The primary record and its person and class keys commit as one
	// store batch: one lock acquisition, one WAL frame, and — because a
	// batch frame replays all-or-nothing — no crash window in which a
	// notification exists without its index entries (or vice versa).
	// The secondary keys carry everything a scan needs (the event id is
	// their last component, see idxKeyID), so their values are empty.
	ts := timeKey(n.OccurredAt)
	b := batchPool.Get().(*store.Batch)
	b.Reset()
	b.PutOwned(eventKey(n.ID), data)
	b.PutOwned(personIdxKey(pseudonym, ts, n.ID), nil)
	b.PutOwned(classIdxKey(n.Class, ts, n.ID), nil)
	c, err := ix.st.StageApply(b)
	batchPool.Put(b)
	if err != nil {
		return store.Commit{}, err
	}
	return c, nil
}

// appendRecordJSON renders the persisted record by hand, with the same
// field set, tags and value encoding the json.Marshal of record
// produced, so existing stores decode identically. One exact-guess
// allocation instead of reflection. The sealed person identifier is
// base64-encoded straight into the record (the URL-safe alphabet never
// needs JSON escaping), producing the byte-identical personId value
// SealString used to build through an intermediate string.
func appendRecordJSON(n *event.Notification, sealed []byte) []byte {
	dst := make([]byte, 0, len(n.ID)+len(n.Class)+base64.URLEncoding.EncodedLen(len(sealed))+len(n.Summary)+
		len(n.Producer)+2*len(time.RFC3339Nano)+112)
	dst = append(dst, `{"id":`...)
	dst = jsonx.AppendString(dst, string(n.ID))
	dst = append(dst, `,"class":`...)
	dst = jsonx.AppendString(dst, string(n.Class))
	dst = append(dst, `,"personId":"`...)
	dst = base64.URLEncoding.AppendEncode(dst, sealed)
	dst = append(dst, `","encrypted":true,"summary":`...)
	dst = jsonx.AppendString(dst, n.Summary)
	dst = append(dst, `,"occurredAt":"`...)
	dst = n.OccurredAt.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","producer":`...)
	dst = jsonx.AppendString(dst, string(n.Producer))
	dst = append(dst, `,"publishedAt":"`...)
	dst = n.PublishedAt.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `"}`...)
	return dst
}

// readRecordJSON reads a record in exactly the layout appendRecordJSON
// writes, in one pass and without reflection, and reports whether it
// did. Anything else — reordered or unknown fields, whitespace, the
// "encrypted":false records of the retired E5 baseline, an escape
// AppendString never writes, invalid UTF-8 — is left to encoding/json.
func readRecordJSON(data []byte, rec *record) bool {
	r := jsonx.NewReader(data)
	r.Expect(`{"id":`)
	rec.ID = event.GlobalID(r.String())
	r.Expect(`,"class":`)
	rec.Class = event.ClassID(r.String())
	r.Expect(`,"personId":`)
	rec.PersonID = r.String()
	r.Expect(`,"encrypted":true,"summary":`)
	rec.Encrypted = true
	rec.Summary = r.String()
	r.Expect(`,"occurredAt":`)
	rec.OccurredAt = r.Time()
	r.Expect(`,"producer":`)
	rec.Producer = event.ProducerID(r.String())
	r.Expect(`,"publishedAt":`)
	rec.PublishedAt = r.Time()
	r.Expect(`}`)
	return r.Done()
}

// decodeRecord reads a stored record: by hand when it is in
// appendRecordJSON's layout, through encoding/json otherwise. The
// fallback decodes into a value of its own, so a half-read record never
// leaks fields into it (and the hand-read one stays off the heap).
func decodeRecord(data []byte) (record, error) {
	var rec record
	if readRecordJSON(data, &rec) {
		return rec, nil
	}
	var ref record
	err := json.Unmarshal(data, &ref)
	return ref, err
}

// Get returns the notification with the given global ID, with the person
// identifier decrypted. The caller owns the returned notification.
func (ix *Index) Get(id event.GlobalID) (*event.Notification, error) {
	var n *event.Notification
	err := ix.st.View(func(tx store.Tx) error {
		v, ok := tx.Get(eventKey(id))
		if !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		var err error
		n, err = ix.decode(v)
		return err
	})
	return n, err
}

func (ix *Index) decode(v []byte) (*event.Notification, error) {
	r, err := decodeRecord(v)
	if err != nil {
		return nil, fmt.Errorf("index: corrupt record: %w", err)
	}
	person := r.PersonID
	if r.Encrypted {
		pt, err := ix.keys.OpenString(r.PersonID)
		if err != nil {
			return nil, fmt.Errorf("index: decrypt person id: %w", err)
		}
		person = pt
	}
	return &event.Notification{
		ID:          r.ID,
		Class:       r.Class,
		PersonID:    person,
		Summary:     r.Summary,
		OccurredAt:  r.OccurredAt,
		Producer:    r.Producer,
		PublishedAt: r.PublishedAt,
	}, nil
}

// Inquiry filters an index query. Zero values match anything.
type Inquiry struct {
	// PersonID selects the events of one data subject (plaintext; the
	// index translates it to the pseudonym internally).
	PersonID string
	// Class selects one event class.
	Class event.ClassID
	// Producer selects one source.
	Producer event.ProducerID
	// From/To bound the occurrence time (inclusive).
	From, To time.Time
	// Limit bounds the result size; 0 means unlimited.
	Limit int
}

// Inquire returns the notifications matching q in occurrence-time order
// (within the chosen access path). It uses the person index when a
// person is given, else the class index, else a full scan.
func (ix *Index) Inquire(q Inquiry) ([]*event.Notification, error) {
	switch {
	case q.PersonID != "":
		return ix.scanIdx("p/"+ix.keys.Pseudonym(q.PersonID)+"/", q)
	case q.Class != "":
		return ix.scanIdx("c/"+string(q.Class)+"/", q)
	default:
		return ix.scanAll(q)
	}
}

// scanIdx walks a secondary index prefix, bounding the scan by the time
// window encoded in the keys, and resolves the primary records inside
// the same read transaction — one lock acquisition for the whole scan.
// The walk reads keys only: the event id is the key's last component
// (see idxKeyID). The secondary values are empty, or the id itself in
// stores written by earlier builds; either way they are never fetched.
func (ix *Index) scanIdx(prefix string, q Inquiry) ([]*event.Notification, error) {
	from := prefix
	if !q.From.IsZero() {
		from = prefix + timeKey(q.From)
	}
	// The key's time component follows the prefix at a fixed width, so a
	// key past To ends the scan before its record is fetched, decrypted
	// and decoded. Only instants from 1970 on sort as digits (see
	// timeKey): an earlier or unrepresentable To keeps the stop below,
	// and an earlier key compares below any such To.
	var toKey string
	if nano := q.To.UnixNano(); !q.To.IsZero() && nano >= 0 && time.Unix(0, nano).Equal(q.To) {
		toKey = timeKey(q.To)
	}
	var out []*event.Notification
	var innerErr error
	err := ix.st.View(func(tx store.Tx) error {
		tx.AscendKeys(prefix, from, func(k string) bool {
			ts := k[len(prefix):]
			if toKey != "" && len(ts) >= len(toKey) && ts[:len(toKey)] > toKey {
				return false
			}
			id, ok := idxKeyID(ts)
			if !ok {
				innerErr = fmt.Errorf("index: malformed index key under %q", prefix)
				return false
			}
			pv, ok := tx.Get(eventKey(id))
			if !ok {
				innerErr = fmt.Errorf("%w: dangling index entry %s", ErrNotFound, id)
				return false
			}
			n, err := ix.decode(pv)
			if err != nil {
				innerErr = err
				return false
			}
			if !matches(n, q) {
				// Keys from 1970 on are time-ordered: once past To we
				// can stop. Earlier keys sort latest first, and ahead
				// of all others, so they never end the scan.
				if !q.To.IsZero() && n.OccurredAt.After(q.To) && (ts == "" || ts[0] != '-') {
					return false
				}
				return true
			}
			out = append(out, n)
			return q.Limit <= 0 || len(out) < q.Limit
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, innerErr
}

func (ix *Index) scanAll(q Inquiry) ([]*event.Notification, error) {
	var out []*event.Notification
	var innerErr error
	err := ix.st.View(func(tx store.Tx) error {
		tx.AscendPrefix("e/", func(k string, v []byte) bool {
			n, err := ix.decode(v)
			if err != nil {
				innerErr = err
				return false
			}
			if !matches(n, q) {
				return true
			}
			out = append(out, n)
			return q.Limit <= 0 || len(out) < q.Limit
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, innerErr
}

func matches(n *event.Notification, q Inquiry) bool {
	if q.PersonID != "" && n.PersonID != q.PersonID {
		return false
	}
	if q.Class != "" && n.Class != q.Class {
		return false
	}
	if q.Producer != "" && n.Producer != q.Producer {
		return false
	}
	if !q.From.IsZero() && n.OccurredAt.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && n.OccurredAt.After(q.To) {
		return false
	}
	return true
}

// Len returns the number of stored notifications, counting keys.
func (ix *Index) Len() (int, error) {
	n := 0
	err := ix.st.View(func(tx store.Tx) error {
		tx.AscendKeys("e/", "", func(string) bool {
			n++
			return true
		})
		return nil
	})
	return n, err
}

func eventKey(id event.GlobalID) string { return "e/" + string(id) }

func personIdxKey(person, ts string, id event.GlobalID) string {
	return "p/" + person + "/" + ts + "/" + string(id)
}

func classIdxKey(c event.ClassID, ts string, id event.GlobalID) string {
	return "c/" + string(c) + "/" + ts + "/" + string(id)
}

// idxKeyID returns the event id of a person or class index key from the
// part after its "p/<pseudonym>/" or "c/<class>/" prefix: a timeKey,
// which is always 20 characters, a '/', then the id.
func idxKeyID(rest string) (event.GlobalID, bool) {
	const tsLen = 20
	if len(rest) <= tsLen+1 || rest[tsLen] != '/' {
		return "", false
	}
	return event.GlobalID(rest[tsLen+1:]), true
}

// timeKey renders an instant as a fixed-width sortable key component
// ("%020d" of the UnixNano): 20 characters for every instant, a
// pre-1970 one included, which idxKeyID relies on.
func timeKey(t time.Time) string {
	v := t.UnixNano()
	if v < 0 {
		// Pre-1970 instants: replicate fmt's sign-then-zero-pad layout.
		s := strconv.FormatInt(v, 10)
		if len(s) >= 20 {
			return s
		}
		var b [20]byte
		b[0] = '-'
		pad := len(b) - len(s)
		for i := 1; i <= pad; i++ {
			b[i] = '0'
		}
		copy(b[1+pad:], s[1:])
		return string(b[:])
	}
	var b [20]byte
	u := uint64(v)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte('0' + u%10)
		u /= 10
	}
	return string(b[:])
}
