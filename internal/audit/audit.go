// Package audit implements the access log of the data controller: "the
// data controller ... maintains logs of the access request for auditing
// purposes" (paper §4), answering "who did the request and why/for which
// purpose" (§1) for the privacy guarantor or the data subject herself.
//
// The log is append-only and hash-chained: every record's hash covers
// the hash of its predecessor, so truncation or in-place tampering is
// detectable by Verify. Records are persisted through the embedded store;
// the predecessor's hash is not stored again in each record, since every
// reader walks the chain in order and has it in hand.
package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/jsonx"
	"repro/internal/store"
)

// Kind classifies an audited interaction.
type Kind string

// Audited interaction kinds.
const (
	// KindPublish: a producer published a notification.
	KindPublish Kind = "publish"
	// KindSubscribe: a consumer asked to subscribe to an event class.
	KindSubscribe Kind = "subscribe"
	// KindDetailRequest: a consumer asked for the details of an event.
	KindDetailRequest Kind = "detail-request"
	// KindIndexInquiry: a consumer queried the events index.
	KindIndexInquiry Kind = "index-inquiry"
)

// Record is one audited interaction. Outcome is "permit" or "deny"
// (or "ok" for publishes); PolicyID names the deciding policy when one
// matched.
type Record struct {
	// Seq is the 1-based position in the chain.
	Seq uint64 `json:"seq"`
	// At is when the interaction was logged.
	At time.Time `json:"at"`
	// Kind classifies the interaction.
	Kind Kind `json:"kind"`
	// Actor is who performed it (consumer actor or producer id).
	Actor string `json:"actor"`
	// EventID is the global event id, when the interaction names one.
	EventID event.GlobalID `json:"eventId,omitempty"`
	// Class is the event class involved.
	Class event.ClassID `json:"class,omitempty"`
	// Purpose is the declared purpose of use, when stated.
	Purpose event.Purpose `json:"purpose,omitempty"`
	// Outcome is the decision: "permit", "deny" or "ok".
	Outcome string `json:"outcome"`
	// PolicyID names the policy that determined the outcome, if any.
	PolicyID string `json:"policyId,omitempty"`
	// Note carries free-form diagnostic detail (e.g. the denial reason).
	Note string `json:"note,omitempty"`
	// Trace is the correlation identifier of the flow this record belongs
	// to (minted at the originating publish or detail request). It links
	// the audit trail to the runtime telemetry: the same id appears on
	// wire messages, spans and logs, and it is covered by the chain hash.
	Trace string `json:"trace,omitempty"`
	// PrevHash/Hash chain the record to its predecessor. PrevHash is the
	// predecessor's Hash; it is stored only in records of earlier builds,
	// and Append, Verify and Search fill it from the chain.
	PrevHash string `json:"prevHash,omitempty"`
	Hash     string `json:"hash"`
}

// ErrTampered reports a chain verification failure.
var ErrTampered = errors.New("audit: chain verification failed")

// Log is the hash-chained audit log. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	st   *store.Store
	seq  uint64
	last string // hash of the newest record
}

// genesisHash anchors the chain.
const genesisHash = "css-audit-genesis"

// Open creates a log on st, recovering the chain head from the newest
// persisted record (see Recover). An undecodable head fails Open.
// Damage anywhere else in the chain is not looked for here: that is
// Verify's job (css-audit -verify), which walks and re-hashes every
// record.
func Open(st *store.Store) (*Log, error) {
	l := &Log{st: st}
	if err := l.Recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// Recover re-reads the in-memory chain head from the store. The log
// uses keys with prefix "a/" — zero-padded sequence numbers — so the
// newest record is the last key, and Recover decodes that one record
// whatever the chain's length. It follows the store both ways: records
// that reached it behind the log's back (a replica's audit store is
// fed by the replication stream, not by Append) and records a WAL
// truncation took away (a deposed primary rejoining), down to the
// genesis of an emptied chain. A replica calls it after every applied
// segment; promotion calls it once more before the node starts
// appending. An undecodable head leaves the head as it was.
func (l *Log) Recover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, last := uint64(0), genesisHash
	err := l.st.View(func(tx store.Tx) error {
		k, v, ok := tx.Last("a/")
		if !ok {
			return nil
		}
		var err error
		seq, last, err = readHead(v)
		if err != nil {
			return fmt.Errorf("audit: corrupt record %s: %w", k, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.seq, l.last = seq, last
	return nil
}

// Fixed ends of every record AppendStaged writes, and of the
// json.Marshal output of earlier builds: Seq is the first field and Hash
// the last, and a hash is 64 lowercase hex digits.
const (
	headPrefix = `{"seq":`
	hashField  = `,"hash":"`
	headSuffix = len(hashField) + 2*sha256.Size + len(`"}`)
)

// readHead returns the seq and hash of a stored record. It reads them
// from the record's fixed ends when it has them — one number and one
// string, where a full decode would cost a reflection walk over every
// field — and leaves anything else to encoding/json. What lies between
// the ends is not looked at here; Verify re-hashes it.
func readHead(v []byte) (uint64, string, error) {
	if seq, hash, ok := readHeadEnds(v); ok {
		return seq, hash, nil
	}
	var r Record
	if err := json.Unmarshal(v, &r); err != nil {
		return 0, "", err
	}
	return r.Seq, r.Hash, nil
}

// readHeadEnds is readHead's fast path: it reports false unless v starts
// with {"seq":<decimal without leading zeros>, and ends with
// ,"hash":"<64 lowercase hex>"}.
func readHeadEnds(v []byte) (uint64, string, bool) {
	if len(v) < len(headPrefix)+2+headSuffix || string(v[:len(headPrefix)]) != headPrefix {
		return 0, "", false
	}
	digits := v[len(headPrefix):]
	end := 0
	for end < len(digits) && digits[end] >= '0' && digits[end] <= '9' {
		end++
	}
	// The comma after the number may be the one that opens hashField.
	if end == 0 || (digits[0] == '0' && end > 1) || digits[end] != ',' || len(headPrefix)+end > len(v)-headSuffix {
		return 0, "", false
	}
	seq, err := strconv.ParseUint(string(digits[:end]), 10, 64)
	if err != nil {
		return 0, "", false
	}
	tail := v[len(v)-headSuffix:]
	if string(tail[:len(hashField)]) != hashField || string(tail[len(tail)-2:]) != `"}` {
		return 0, "", false
	}
	hash := tail[len(hashField) : len(tail)-2]
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return 0, "", false
		}
	}
	return seq, string(hash), true
}

// bufPool recycles the scratch buffer used to build hash inputs and the
// JSON body, so a steady-state append does not allocate for either.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// Append adds a record to the chain. Seq, PrevHash and Hash are assigned
// by the log; the caller fills the descriptive fields. The stored record
// is returned. Append is AppendStaged followed immediately by the commit
// barrier.
func (l *Log) Append(r Record) (Record, error) {
	rec, c, err := l.AppendStaged(r)
	if err != nil {
		return Record{}, err
	}
	return rec, c.Wait()
}

// AppendStaged adds a record to the chain but returns before the store's
// fsync barrier: the record is in memory and in the WAL, and the
// returned Commit's Wait makes it durable. Callers overlap the fsync
// with downstream work (the controller runs bus fan-out meanwhile) and
// must Wait before acknowledging the audited interaction.
//
// The expensive work — JSON-encoding the record body and SHA-hashing it
// — happens before the chain mutex is taken; the lock covers only the
// seq/prev-hash assignment, a small finalizing hash, the splice of the
// chain fields around the prebuilt body, and the store append (which
// must stay inside the lock so the persisted order matches the chain
// order).
func (l *Log) AppendStaged(r Record) (Record, store.Commit, error) {
	if r.Kind == "" || r.Actor == "" || r.Outcome == "" {
		return Record{}, store.Commit{}, errors.New("audit: record missing kind, actor or outcome")
	}
	if r.At.IsZero() {
		r.At = time.Now()
	}
	sum := hashBody(&r)
	bp := bufPool.Get().(*[]byte)
	body := appendBodyJSON((*bp)[:0], &r)

	l.mu.Lock()
	r.Seq = l.seq + 1
	r.PrevHash = l.last
	r.Hash = chainHash(r.Seq, r.PrevHash, sum)
	out := make([]byte, 0, len(body)+len(r.Hash)+40)
	out = append(out, headPrefix...)
	out = strconv.AppendUint(out, r.Seq, 10)
	out = append(out, ',')
	out = append(out, body...)
	out = append(out, hashField...)
	out = append(out, r.Hash...)
	out = append(out, `"}`...)
	c, err := l.st.StagePut(key(r.Seq), out)
	if err != nil {
		l.mu.Unlock()
		return Record{}, store.Commit{}, err
	}
	l.seq = r.Seq
	l.last = r.Hash
	l.mu.Unlock()

	*bp = body[:0]
	bufPool.Put(bp)
	return r, c, nil
}

// appendBodyJSON renders the descriptive fields (everything but the
// chain fields) as a brace-less JSON fragment with the same tags and
// omitempty behavior encoding/json produced historically, so records
// written by older builds and by this one unmarshal identically.
func appendBodyJSON(dst []byte, r *Record) []byte {
	dst = append(dst, `"at":"`...)
	dst = r.At.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","kind":`...)
	dst = jsonx.AppendString(dst, string(r.Kind))
	dst = append(dst, `,"actor":`...)
	dst = jsonx.AppendString(dst, r.Actor)
	if r.EventID != "" {
		dst = append(dst, `,"eventId":`...)
		dst = jsonx.AppendString(dst, string(r.EventID))
	}
	if r.Class != "" {
		dst = append(dst, `,"class":`...)
		dst = jsonx.AppendString(dst, string(r.Class))
	}
	if r.Purpose != "" {
		dst = append(dst, `,"purpose":`...)
		dst = jsonx.AppendString(dst, string(r.Purpose))
	}
	dst = append(dst, `,"outcome":`...)
	dst = jsonx.AppendString(dst, r.Outcome)
	if r.PolicyID != "" {
		dst = append(dst, `,"policyId":`...)
		dst = jsonx.AppendString(dst, r.PolicyID)
	}
	if r.Note != "" {
		dst = append(dst, `,"note":`...)
		dst = jsonx.AppendString(dst, r.Note)
	}
	if r.Trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = jsonx.AppendString(dst, r.Trace)
	}
	return dst
}

// hashBody digests the record's descriptive fields (everything the
// caller supplies). It needs no chain state, so Append computes it
// outside the mutex. The digest input is the '|'-joined field list the
// log has always used, so existing chains keep verifying.
func hashBody(r *Record) [sha256.Size]byte {
	bp := bufPool.Get().(*[]byte)
	buf := r.At.UTC().AppendFormat((*bp)[:0], time.RFC3339Nano)
	buf = append(buf, '|')
	buf = append(buf, r.Kind...)
	buf = append(buf, '|')
	buf = append(buf, r.Actor...)
	buf = append(buf, '|')
	buf = append(buf, r.EventID...)
	buf = append(buf, '|')
	buf = append(buf, r.Class...)
	buf = append(buf, '|')
	buf = append(buf, r.Purpose...)
	buf = append(buf, '|')
	buf = append(buf, r.Outcome...)
	buf = append(buf, '|')
	buf = append(buf, r.PolicyID...)
	buf = append(buf, '|')
	buf = append(buf, r.Note...)
	buf = append(buf, '|')
	buf = append(buf, r.Trace...)
	sum := sha256.Sum256(buf)
	*bp = buf[:0]
	bufPool.Put(bp)
	return sum
}

// chainSum finalizes a record digest from its chain position, the
// predecessor hash and the body digest. The input is
// "<seq>|<prevHash>|<lowercase hex body>", unchanged across versions.
func chainSum(seq uint64, prevHash string, body [sha256.Size]byte) [sha256.Size]byte {
	var hexBody [2 * sha256.Size]byte
	hex.Encode(hexBody[:], body[:])
	bp := bufPool.Get().(*[]byte)
	buf := strconv.AppendUint((*bp)[:0], seq, 10)
	buf = append(buf, '|')
	buf = append(buf, prevHash...)
	buf = append(buf, '|')
	buf = append(buf, hexBody[:]...)
	sum := sha256.Sum256(buf)
	*bp = buf[:0]
	bufPool.Put(bp)
	return sum
}

// chainHash is chainSum rendered as the hex string stored in Hash. It is
// the only hashing done under the chain mutex. The hex digits go through
// a stack buffer so the only heap allocation is the returned string.
func chainHash(seq uint64, prevHash string, body [sha256.Size]byte) string {
	sum := chainSum(seq, prevHash, body)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// recordHashMatches recomputes the chained hash of a fully-assigned
// record and compares it to the stored Hash without materializing the
// hex string on the heap (Verify calls this once per record).
func recordHashMatches(r *Record) bool {
	sum := chainSum(r.Seq, r.PrevHash, hashBody(r))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:]) == r.Hash
}

// key renders a sequence number as a sortable store key ("a/%020d").
func key(seq uint64) string {
	var b [22]byte
	b[0], b[1] = 'a', '/'
	for i := len(b) - 1; i >= 2; i-- {
		b[i] = byte('0' + seq%10)
		seq /= 10
	}
	return string(b[:])
}

// Len returns the number of records.
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Verify walks the whole chain and checks every link. It returns
// ErrTampered (wrapped with the offending sequence number) if a record
// was modified, reordered or removed.
//
// The walk streams: records are decoded one at a time under a single
// read transaction (no accumulated slice) and the recomputed hash is
// compared in place, so verifying a large chain costs O(1) extra memory.
// Each link needs its predecessor's hash only, which the walk carries
// from the record before. A record of an earlier build also stores it,
// and that copy must agree with the walk.
func (l *Log) Verify() error {
	l.mu.Lock()
	seq := l.seq
	l.mu.Unlock()
	prev := genesisHash
	var want uint64 = 1
	var verr error
	var r Record
	err := l.st.View(func(tx store.Tx) error {
		tx.AscendPrefix("a/", func(k string, v []byte) bool {
			r = Record{}
			if err := json.Unmarshal(v, &r); err != nil {
				verr = fmt.Errorf("%w: undecodable record at %s", ErrTampered, k)
				return false
			}
			if r.Seq != want {
				verr = fmt.Errorf("%w: gap at seq %d (found %d)", ErrTampered, want, r.Seq)
				return false
			}
			if r.PrevHash != "" && r.PrevHash != prev {
				verr = fmt.Errorf("%w: broken link at seq %d", ErrTampered, r.Seq)
				return false
			}
			r.PrevHash = prev
			if !recordHashMatches(&r) {
				verr = fmt.Errorf("%w: content hash mismatch at seq %d", ErrTampered, r.Seq)
				return false
			}
			prev = r.Hash // fresh string from Unmarshal, safe to retain
			want++
			return true
		})
		return nil
	})
	if err != nil {
		return err
	}
	if verr != nil {
		return verr
	}
	if want != seq+1 {
		return fmt.Errorf("%w: chain shorter than expected (%d < %d)", ErrTampered, want-1, seq)
	}
	return nil
}

// Query filters the audit trail. Zero-valued fields match anything.
type Query struct {
	Kind    Kind
	Actor   string
	EventID event.GlobalID
	Class   event.ClassID
	Outcome string
	Trace   string
	From    time.Time
	To      time.Time
	Limit   int
}

// Search returns the records matching q, in chain order. Like Verify it
// streams under one read transaction: a non-matching record costs its
// read and decode and is not kept. Each record's PrevHash is the Hash of
// the record before it in the walk.
func (l *Log) Search(q Query) ([]Record, error) {
	var out []Record
	var derr error
	prev := genesisHash
	err := l.st.View(func(tx store.Tx) error {
		tx.AscendPrefix("a/", func(k string, v []byte) bool {
			var r Record
			if err := json.Unmarshal(v, &r); err != nil {
				derr = fmt.Errorf("audit: corrupt record %s: %w", k, err)
				return false
			}
			r.PrevHash, prev = prev, r.Hash
			if q.Kind != "" && r.Kind != q.Kind {
				return true
			}
			if q.Actor != "" && r.Actor != q.Actor {
				return true
			}
			if q.EventID != "" && r.EventID != q.EventID {
				return true
			}
			if q.Class != "" && r.Class != q.Class {
				return true
			}
			if q.Outcome != "" && r.Outcome != q.Outcome {
				return true
			}
			if q.Trace != "" && r.Trace != q.Trace {
				return true
			}
			if !q.From.IsZero() && r.At.Before(q.From) {
				return true
			}
			if !q.To.IsZero() && r.At.After(q.To) {
				return true
			}
			out = append(out, r)
			return q.Limit <= 0 || len(out) < q.Limit
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, derr
}
