package audit

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// withPrevHash rewrites a stored record into the layout earlier builds
// wrote: the predecessor's hash stored between the body and the hash.
func withPrevHash(t *testing.T, raw []byte, prev string) []byte {
	t.Helper()
	i := bytes.LastIndex(raw, []byte(hashField))
	if i < 0 {
		t.Fatalf("no hash field in %s", raw)
	}
	out := append([]byte(nil), raw[:i]...)
	out = append(out, `,"prevHash":"`+prev+`"`...)
	return append(out, raw[i:]...)
}

// toEarlierLayout rewrites records 1..n of st's chain as an earlier build
// stored them.
func toEarlierLayout(t *testing.T, st *store.Store, n uint64) {
	t.Helper()
	prev := genesisHash
	for seq := uint64(1); seq <= n; seq++ {
		raw := mustGet(t, st, key(seq))
		_, hash, err := readHead(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key(seq), withPrevHash(t, raw, prev)); err != nil {
			t.Fatal(err)
		}
		prev = hash
	}
}

// TestStoredRecordOmitsPrevHash: a record holds seq, body and hash, and
// nothing else of the chain; withPrevHash turns it into exactly what an
// earlier build stored, the json.Marshal of the whole Record.
func TestStoredRecordOmitsPrevHash(t *testing.T) {
	st := chainOf(t, 1)
	l, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	r := sample(KindDetailRequest, "doctor", "permit")
	r.At = time.Date(2010, 6, 1, 9, 0, 0, 5, time.UTC)
	rec, err := l.Append(r)
	if err != nil {
		t.Fatal(err)
	}
	raw := mustGet(t, st, key(2))
	if bytes.Contains(raw, []byte("prevHash")) || !bytes.HasPrefix(raw, []byte(`{"seq":2,"at":"`)) {
		t.Errorf("stored record = %s", raw)
	}
	earlier, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := withPrevHash(t, raw, rec.PrevHash); !bytes.Equal(got, earlier) {
		t.Errorf("earlier layout:\n got %s\nwant %s", got, earlier)
	}
}

// TestVerifyDetectsSwappedRecords: two records' values exchanged under
// their keys break the chain although each record is intact.
func TestVerifyDetectsSwappedRecords(t *testing.T) {
	st := store.OpenMemory()
	l, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, actor := range []string{"doctor", "nurse", "clerk", "auditor"} {
		if _, err := l.Append(sample(KindDetailRequest, actor, "permit")); err != nil {
			t.Fatal(err)
		}
	}
	a, b := mustGet(t, st, key(2)), mustGet(t, st, key(3))
	st.Put(key(2), b)
	st.Put(key(3), a)
	if err := l.Verify(); !errors.Is(err, ErrTampered) {
		t.Errorf("Verify after swapping records 2 and 3 = %v, want ErrTampered", err)
	}
}

// TestMixedLayoutChain: a chain whose first records an earlier build
// wrote (each storing its predecessor's hash) reopens, takes new
// records, verifies, and reopens again at its new head.
func TestMixedLayoutChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.wal")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(sample(KindPublish, "prod", "ok")); err != nil {
			t.Fatal(err)
		}
	}
	toEarlierLayout(t, st, 3)
	if l, err = Open(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(sample(KindDetailRequest, "doctor", "deny")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify of a mixed-layout chain = %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	l2, err := Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := l2.Append(sample(KindPublish, "prod", "ok"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 7 {
		t.Errorf("append after reopen: seq %d, want 7", r.Seq)
	}
	if err := l2.Verify(); err != nil {
		t.Errorf("Verify after reopen = %v", err)
	}
}

// TestVerifyChecksStoredPrevHash: in a record of an earlier build, the
// stored predecessor hash is still held to the chain.
func TestVerifyChecksStoredPrevHash(t *testing.T) {
	st := chainOf(t, 4)
	toEarlierLayout(t, st, 4)
	l, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify of an earlier-layout chain = %v", err)
	}
	raw := mustGet(t, st, key(3))
	_, hash2, _ := readHead(mustGet(t, st, key(2)))
	edited := bytes.Replace(raw, []byte(`"prevHash":"`+hash2), []byte(`"prevHash":"`+strings.Repeat("0", 64)), 1)
	if bytes.Equal(edited, raw) {
		t.Fatalf("record 3 does not store record 2's hash: %s", raw)
	}
	st.Put(key(3), edited)
	err = l.Verify()
	if !errors.Is(err, ErrTampered) || !strings.Contains(err.Error(), "broken link at seq 3") {
		t.Errorf("Verify with an edited stored prevHash = %v, want a broken link at seq 3", err)
	}
}

// TestSearchFillsPrevHash: Search returns each record with its
// predecessor's hash, whether the record stores it or not.
func TestSearchFillsPrevHash(t *testing.T) {
	for _, earlier := range []uint64{0, 2, 5} {
		st := chainOf(t, 5)
		toEarlierLayout(t, st, earlier)
		l, err := Open(st)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := l.Search(Query{})
		if err != nil || len(recs) != 5 {
			t.Fatalf("Search = %d records, %v", len(recs), err)
		}
		prev := genesisHash
		for _, r := range recs {
			if r.PrevHash != prev {
				t.Errorf("%d earlier-layout records: seq %d PrevHash %q, want %q", earlier, r.Seq, r.PrevHash, prev)
			}
			prev = r.Hash
		}
		if got, _ := l.Search(Query{Limit: 1}); len(got) != 1 || got[0].PrevHash != genesisHash {
			t.Errorf("first record from a limited Search = %+v", got)
		}
	}
}

func mustGet(t *testing.T, st *store.Store, k string) []byte {
	t.Helper()
	v, ok, err := st.Get(k)
	if err != nil || !ok {
		t.Fatalf("%s: ok=%v err=%v", k, ok, err)
	}
	return v
}
