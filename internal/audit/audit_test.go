package audit

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

func openLog(t *testing.T) *Log {
	t.Helper()
	l, err := Open(store.OpenMemory())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func sample(kind Kind, actor, outcome string) Record {
	return Record{
		Kind:    kind,
		Actor:   actor,
		EventID: "evt-1",
		Class:   "c.x",
		Purpose: "care",
		Outcome: outcome,
	}
}

func TestAppendAssignsChainFields(t *testing.T) {
	l := openLog(t)
	r1, err := l.Append(sample(KindDetailRequest, "doctor", "permit"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if r1.Seq != 1 || r1.Hash == "" || r1.PrevHash != genesisHash || r1.At.IsZero() {
		t.Errorf("first record: %+v", r1)
	}
	r2, err := l.Append(sample(KindDetailRequest, "doctor", "deny"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seq != 2 || r2.PrevHash != r1.Hash {
		t.Errorf("second record not chained: %+v", r2)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestAppendValidation(t *testing.T) {
	l := openLog(t)
	bad := []Record{
		{Actor: "a", Outcome: "permit"},    // no kind
		{Kind: KindPublish, Outcome: "ok"}, // no actor
		{Kind: KindPublish, Actor: "a"},    // no outcome
	}
	for i, r := range bad {
		if _, err := l.Append(r); err == nil {
			t.Errorf("case %d: invalid record accepted", i)
		}
	}
}

func TestVerifyCleanChain(t *testing.T) {
	l := openLog(t)
	for i := 0; i < 50; i++ {
		if _, err := l.Append(sample(KindDetailRequest, fmt.Sprintf("actor-%d", i), "permit")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Verify(); err != nil {
		t.Errorf("Verify(clean) = %v", err)
	}
}

func TestVerifyDetectsContentTampering(t *testing.T) {
	st := store.OpenMemory()
	l, _ := Open(st)
	l.Append(sample(KindDetailRequest, "doctor", "deny"))
	l.Append(sample(KindDetailRequest, "nurse", "permit"))

	// Rewrite record 1 to claim it was permitted.
	v, ok, _ := st.Get(key(1))
	if !ok {
		t.Fatal("record 1 missing")
	}
	var r Record
	json.Unmarshal(v, &r)
	r.Outcome = "permit"
	mut, _ := json.Marshal(&r)
	st.Put(key(1), mut)

	if err := l.Verify(); !errors.Is(err, ErrTampered) {
		t.Errorf("Verify after tamper = %v, want ErrTampered", err)
	}
}

func TestVerifyDetectsDeletionAndTruncation(t *testing.T) {
	st := store.OpenMemory()
	l, _ := Open(st)
	for i := 0; i < 5; i++ {
		l.Append(sample(KindPublish, "prod", "ok"))
	}
	// Delete a middle record: gap.
	st.Delete(key(3))
	if err := l.Verify(); !errors.Is(err, ErrTampered) {
		t.Errorf("Verify after deletion = %v", err)
	}

	// Truncation: delete the last records.
	st2 := store.OpenMemory()
	l2, _ := Open(st2)
	for i := 0; i < 5; i++ {
		l2.Append(sample(KindPublish, "prod", "ok"))
	}
	st2.Delete(key(5))
	if err := l2.Verify(); !errors.Is(err, ErrTampered) {
		t.Errorf("Verify after truncation = %v", err)
	}
}

func TestRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.wal")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := Open(st)
	var last Record
	for i := 0; i < 10; i++ {
		last, _ = l.Append(sample(KindSubscribe, "consumer", "permit"))
	}
	st.Close()

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	l2, err := Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 10 {
		t.Errorf("recovered Len = %d", l2.Len())
	}
	// The chain must continue from the recovered head, not restart.
	r11, err := l2.Append(sample(KindSubscribe, "consumer", "deny"))
	if err != nil {
		t.Fatal(err)
	}
	if r11.Seq != 11 || r11.PrevHash != last.Hash {
		t.Errorf("chain not continued after recovery: %+v (want prev %s)", r11, last.Hash)
	}
	if err := l2.Verify(); err != nil {
		t.Errorf("Verify after recovery = %v", err)
	}
}

// A WAL truncation (a deposed primary rejoining) takes records away
// under a live log: Recover must follow the head back, so the next
// append links to a record that exists — and to genesis when nothing is
// left.
func TestRecoverAfterWALTruncate(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "audit.wal"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	start := st.WALOffset()
	l, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]int64, 5)
	for i := range offsets {
		if _, err := l.Append(sample(KindSubscribe, "consumer", "permit")); err != nil {
			t.Fatal(err)
		}
		offsets[i] = st.WALOffset()
	}

	if err := st.TruncateWAL(offsets[2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Fatalf("Len after truncating to record 3 and Recover = %d, want 3", l.Len())
	}
	r, err := l.Append(sample(KindSubscribe, "consumer", "deny"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 4 {
		t.Errorf("next append Seq = %d, want 4", r.Seq)
	}
	if err := l.Verify(); err != nil {
		t.Errorf("Verify after truncate, Recover, Append = %v", err)
	}

	if err := st.TruncateWAL(start); err != nil {
		t.Fatal(err)
	}
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	if r, err := l.Append(sample(KindSubscribe, "consumer", "permit")); err != nil || r.Seq != 1 || r.PrevHash != genesisHash {
		t.Errorf("append on an emptied chain = %+v, %v; want seq 1 after genesis", r, err)
	}
	if err := l.Verify(); err != nil {
		t.Errorf("Verify after truncating to nothing = %v", err)
	}
}

func TestSearch(t *testing.T) {
	l := openLog(t)
	base := time.Date(2010, 6, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		r := sample(KindDetailRequest, "doctor", "permit")
		if i%2 == 1 {
			r.Actor = "nurse"
			r.Outcome = "deny"
		}
		if i >= 5 {
			r.Kind = KindIndexInquiry
			r.Class = "c.y"
		}
		r.At = base.Add(time.Duration(i) * time.Hour)
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 10},
		{"by kind", Query{Kind: KindDetailRequest}, 5},
		{"by actor", Query{Actor: "nurse"}, 5},
		{"by outcome", Query{Outcome: "deny"}, 5},
		{"by class", Query{Class: "c.y"}, 5},
		{"by event", Query{EventID: "evt-1"}, 10},
		{"by absent event", Query{EventID: "evt-404"}, 0},
		{"time from", Query{From: base.Add(5 * time.Hour)}, 5},
		{"time to", Query{To: base.Add(4 * time.Hour)}, 5},
		{"window", Query{From: base.Add(2 * time.Hour), To: base.Add(4 * time.Hour)}, 3},
		{"limit", Query{Limit: 3}, 3},
		{"combined", Query{Kind: KindDetailRequest, Actor: "doctor"}, 3},
	}
	for _, tc := range cases {
		got, err := l.Search(tc.q)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(got) != tc.want {
			t.Errorf("%s: %d records, want %d", tc.name, len(got), tc.want)
		}
	}
	// Results must come back in chain order.
	all, _ := l.Search(Query{})
	for i := 1; i < len(all); i++ {
		if all[i].Seq != all[i-1].Seq+1 {
			t.Errorf("out of order at %d", i)
		}
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := openLog(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := l.Append(sample(KindPublish, "prod", "ok")); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if l.Len() != 400 {
		t.Errorf("Len = %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Errorf("Verify after concurrent appends = %v", err)
	}
}

// chainOf returns a store holding an n-record chain.
func chainOf(t *testing.T, n int) *store.Store {
	t.Helper()
	st := store.OpenMemory()
	l, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(sample(KindPublish, "prod", "ok")); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestOpenReadsOnlyTheHead: Open finds the chain head from the last key
// alone, so its work does not grow with the chain — and the head it
// finds is the one a scan of every record arrives at.
func TestOpenReadsOnlyTheHead(t *testing.T) {
	short, long := chainOf(t, 10), chainOf(t, 10_000)
	open := func(st *store.Store) func() {
		return func() {
			if _, err := Open(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := testing.AllocsPerRun(10, open(short)), testing.AllocsPerRun(10, open(long)); a != b {
		t.Errorf("Open allocates %v times on 10 records and %v on 10 000", a, b)
	}
	l, err := Open(long)
	if err != nil {
		t.Fatal(err)
	}
	var head Record
	long.AscendPrefix("a/", func(k string, v []byte) bool {
		var r Record
		if err := json.Unmarshal(v, &r); err != nil {
			t.Fatal(err)
		}
		if r.Seq > head.Seq {
			head = r
		}
		return true
	})
	if l.seq != head.Seq || l.last != head.Hash || head.Seq != 10_000 {
		t.Errorf("Open recovered head (%d, %s), a full scan (%d, %s)", l.seq, l.last, head.Seq, head.Hash)
	}
	if err := l.Verify(); err != nil {
		t.Errorf("Verify = %v", err)
	}
}

// TestOpenCorruptRecords: an undecodable head fails Open; an undecodable
// record further back is Verify's to report.
func TestOpenCorruptRecords(t *testing.T) {
	st := chainOf(t, 10)
	st.Put(key(4), []byte("{not json"))
	l, err := Open(st)
	if err != nil {
		t.Fatalf("Open with a damaged middle record = %v", err)
	}
	if err := l.Verify(); !errors.Is(err, ErrTampered) {
		t.Errorf("Verify with a damaged middle record = %v", err)
	}
	st.Put(key(10), []byte("{not json"))
	if _, err := Open(st); err == nil {
		t.Error("Open accepted an undecodable head record")
	}
}
