package audit

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/store"
)

// referenceHash is the original fmt-based hash implementation. The
// hand-rolled hot path must produce byte-identical digests or existing
// persisted chains would stop verifying.
func referenceHash(r *Record) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%s|%s|%s|%s|%s|%s|%s",
		r.At.UTC().Format(time.RFC3339Nano), r.Kind, r.Actor,
		r.EventID, r.Class, r.Purpose, r.Outcome, r.PolicyID, r.Note, r.Trace)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	h2 := sha256.New()
	fmt.Fprintf(h2, "%d|%s|%x", r.Seq, r.PrevHash, sum)
	return fmt.Sprintf("%x", h2.Sum(nil))
}

func TestHashMatchesReferenceImplementation(t *testing.T) {
	records := []Record{
		{Seq: 1, At: time.Date(2026, 8, 7, 1, 2, 3, 456789, time.UTC),
			Kind: KindPublish, Actor: "hospital", EventID: "evt-1",
			Class: "hospital.blood-test", Outcome: "ok",
			Trace: "4bf92f3577b34da6", PrevHash: genesisHash},
		{Seq: 1234567, At: time.Now(), Kind: KindDetailRequest,
			Actor: "municipality", Purpose: "care", Outcome: "deny",
			PolicyID: "p-9", Note: `denied: "no policy" | reason`,
			PrevHash: "ab" + genesisHash},
		{Seq: 2, At: time.Date(1999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("CET", 3600)),
			Kind: KindSubscribe, Actor: "a|b|c", Outcome: "permit",
			PrevHash: "0000000000000000000000000000000000000000000000000000000000000000"},
	}
	for i, r := range records {
		got := chainHash(r.Seq, r.PrevHash, hashBody(&r))
		if want := referenceHash(&r); got != want {
			t.Fatalf("record %d: hash diverged from reference: %s vs %s", i, got, want)
		}
		r.Hash = got
		if !recordHashMatches(&r) {
			t.Fatalf("record %d: recordHashMatches rejects its own hash", i)
		}
	}
}

func TestKeyMatchesReferenceFormat(t *testing.T) {
	for _, seq := range []uint64{0, 1, 42, 99999, 1<<63 + 11} {
		if got, want := key(seq), fmt.Sprintf("a/%020d", seq); got != want {
			t.Fatalf("key(%d) = %q, want %q", seq, got, want)
		}
	}
}

// The hand-rolled record JSON must stay loadable by encoding/json with
// the exact field set the struct tags declare, including escaping.
func TestAppendedJSONRoundTrips(t *testing.T) {
	st := store.OpenMemory()
	l, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	in := Record{
		Kind:  KindIndexInquiry,
		Actor: `evil "actor"` + "\n\t\\" + string(rune(0x01)),
		Class: "a.b", Purpose: "care", Outcome: "permit",
		PolicyID: "p-1", Note: "n<&>" + string(rune(0x1f)),
		Trace:   "deadbeef00000000",
		EventID: "evt-x",
	}
	stored, err := l.Append(in)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok, err := st.Get(key(stored.Seq))
	if err != nil || !ok {
		t.Fatalf("record not stored: ok=%v err=%v", ok, err)
	}
	if !json.Valid(raw) {
		t.Fatalf("stored record is not valid JSON: %s", raw)
	}
	var got Record
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("stored record does not unmarshal: %v\n%s", err, raw)
	}
	if got.Actor != in.Actor || got.Note != in.Note || got.Kind != in.Kind ||
		got.Class != in.Class || got.Purpose != in.Purpose || got.Outcome != in.Outcome ||
		got.PolicyID != in.PolicyID || got.Trace != in.Trace || got.EventID != in.EventID {
		t.Fatalf("round trip mismatch:\n in: %+v\ngot: %+v", in, got)
	}
	// The predecessor's hash is not stored; Search fills it from the chain.
	if got.Seq != stored.Seq || got.PrevHash != "" || got.Hash != stored.Hash {
		t.Fatalf("chain fields mismatch: appended %+v, stored %+v", stored, got)
	}
	if found, err := l.Search(Query{}); err != nil || len(found) != 1 || found[0].PrevHash != stored.PrevHash {
		t.Fatalf("Search = %+v, %v; want PrevHash %s", found, err, stored.PrevHash)
	}
	if !got.At.Equal(stored.At) {
		t.Fatalf("At mismatch: %v vs %v", stored.At, got.At)
	}
	// A chain of such records must verify, and reopening must recover it.
	if _, err := l.Append(Record{Kind: KindPublish, Actor: "a", Outcome: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	re, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened length %d, want 2", re.Len())
	}
	if err := re.Verify(); err != nil {
		t.Fatalf("verify after reopen: %v", err)
	}
}

// AppendStaged must expose the record before the barrier and keep the
// chain intact across a staged append mixed with plain appends.
func TestAppendStagedChain(t *testing.T) {
	st := store.OpenMemory()
	l, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	r1, c1, err := l.AppendStaged(Record{Kind: KindPublish, Actor: "h", Outcome: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seq != 1 || r1.PrevHash != genesisHash {
		t.Fatalf("bad first record: %+v", r1)
	}
	if _, err := l.Append(Record{Kind: KindPublish, Actor: "h", Outcome: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("verify with staged append: %v", err)
	}
}
