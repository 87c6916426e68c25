package audit

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/store"
)

// headEscapes are field values that exercise every escape the record
// writers can emit: quotes, backslashes, control bytes, the HTML
// characters encoding/json escapes, U+2028/U+2029, invalid UTF-8, and
// text that looks like the record's own fixed ends.
var headEscapes = []string{
	"plain",
	`"quoted" \ back\\slash`,
	"\n\t\r\b\f" + string(rune(0x01)) + string(rune(0x1f)),
	"<&>",
	"  ",
	"\xff\xfe broken utf-8",
	"héllo wörld",
	"line\u2028sep\u2029",
	`,"hash":"` + strings.Repeat("a", 64) + `"}`,
	`{"seq":7,`,
}

// checkHead holds the hand-read head of one stored record to what
// encoding/json reads from it, and requires the fast path to take it:
// every record a writer produces has the fixed ends.
func checkHead(t *testing.T, what string, raw []byte) {
	t.Helper()
	var want Record
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: not JSON: %v\n%s", what, err, raw)
	}
	seq, hash, ok := readHeadEnds(raw)
	if !ok {
		t.Fatalf("%s: the fast path refused a writer's record\n%s", what, raw)
	}
	if seq != want.Seq || hash != want.Hash {
		t.Fatalf("%s: hand-read (%d, %s), encoding/json (%d, %s)\n%s", what, seq, hash, want.Seq, want.Hash, raw)
	}
}

// appendAndMarshal appends r at position seq after prevHash and returns
// the bytes AppendStaged stored and the bytes an old build's json.Marshal
// of the same record wrote.
func appendAndMarshal(t testing.TB, r Record, seq uint64, prevHash string) (staged, marshaled []byte) {
	st := store.OpenMemory()
	l := &Log{st: st, seq: seq - 1, last: prevHash}
	rec, _, err := l.AppendStaged(r)
	if err != nil {
		t.Fatal(err)
	}
	staged, ok, err := st.Get(key(rec.Seq))
	if err != nil || !ok {
		t.Fatalf("record %d not stored: %v", rec.Seq, err)
	}
	if marshaled, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	return staged, marshaled
}

// TestReadHeadMatchesJSON: over every combination of the omitempty
// fields, filled with every escape, at one- to twenty-digit sequence
// numbers, the head Recover reads by hand is the one json.Unmarshal
// reads — from AppendStaged's records and from json.Marshal's.
func TestReadHeadMatchesJSON(t *testing.T) {
	at := time.Date(2010, 6, 1, 9, 0, 0, 123, time.FixedZone("CEST", 2*3600))
	seqs := []uint64{1, 9, 10, 12345, 1<<64 - 1}
	n := 0
	for mask := 0; mask < 1<<6; mask++ {
		for _, esc := range headEscapes {
			r := Record{At: at, Kind: KindDetailRequest, Actor: esc, Outcome: esc}
			for bit, f := range []*string{(*string)(&r.EventID), (*string)(&r.Class), (*string)(&r.Purpose), &r.PolicyID, &r.Note, &r.Trace} {
				if mask&(1<<bit) != 0 {
					*f = esc
				}
			}
			prev := genesisHash
			if n%2 == 1 {
				prev = strings.Repeat("0f", 32)
			}
			staged, marshaled := appendAndMarshal(t, r, seqs[n%len(seqs)], prev)
			checkHead(t, "AppendStaged", staged)
			checkHead(t, "json.Marshal", marshaled)
			n++
		}
	}
}

// TestReadHeadFallsBack: records without the fixed ends are left to
// encoding/json and still read, and undecodable ones are errors.
func TestReadHeadFallsBack(t *testing.T) {
	hash := strings.Repeat("ab", 32)
	for _, raw := range []string{
		`{ "seq": 3, "hash": "` + hash + `" }`,
		`{"hash":"` + hash + `","seq":3}`,
		`{"seq":3,"hash":"` + strings.ToUpper(hash) + `"}`,
		`{"seq":3,"hash":"\u0061` + hash[1:] + `"}`,
	} {
		if _, _, ok := readHeadEnds([]byte(raw)); ok {
			t.Errorf("fast path took %s", raw)
		}
		seq, got, err := readHead([]byte(raw))
		var want Record
		if jerr := json.Unmarshal([]byte(raw), &want); jerr != nil {
			t.Fatal(jerr)
		}
		if err != nil || seq != want.Seq || got != want.Hash {
			t.Errorf("readHead(%s) = (%d, %s, %v), want (%d, %s)", raw, seq, got, err, want.Seq, want.Hash)
		}
	}
	for _, raw := range []string{
		`{not json`,
		`{"seq":03,"hash":"` + hash + `"}`,
		`{"seq":18446744073709551616,"hash":"` + hash + `"}`,
		`{"seq":3,"hash":"` + hash[:62] + `"}x`,
	} {
		if _, _, ok := readHeadEnds([]byte(raw)); ok {
			t.Errorf("fast path took %s", raw)
		}
	}
	if _, _, err := readHead([]byte(`{not json`)); err == nil {
		t.Error("readHead accepted an undecodable record")
	}
}

// FuzzAuditHeadDifferential: for any field values and sequence number,
// the head read by hand from the record AppendStaged stores, and from an
// old build's json.Marshal of it, is the one encoding/json reads. The
// predecessor is the genesis or a hex hash, as in every stored chain.
func FuzzAuditHeadDifferential(f *testing.F) {
	for i, esc := range headEscapes {
		f.Add(uint64(i+1), esc, esc, "", esc, "", esc)
	}
	f.Add(uint64(1<<64-1), "a", "b", "c", "d", "e", "f")
	f.Fuzz(func(t *testing.T, seq uint64, actor, eventID, class, policy, note, trace string) {
		if seq == 0 {
			seq = 1
		}
		prev := genesisHash
		if seq%2 == 0 {
			prev = strings.Repeat("0f", 32)
		}
		if actor == "" {
			actor = "a"
		}
		r := Record{
			At: time.Unix(int64(seq%1e9), 0), Kind: KindDetailRequest, Actor: actor,
			EventID: event.GlobalID(eventID), Class: event.ClassID(class),
			Outcome: "deny", PolicyID: policy, Note: note, Trace: trace,
		}
		staged, marshaled := appendAndMarshal(t, r, seq, prev)
		checkHead(t, "AppendStaged", staged)
		checkHead(t, "json.Marshal", marshaled)
	})
}
