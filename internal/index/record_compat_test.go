package index

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/event"
)

// The hand-rolled record encoding must stay decodable into the record
// struct with every value intact — including awkward summaries — so
// stores written by either implementation read back identically; and a
// record of any build decodes to what encoding/json decodes it to,
// whichever path reads it.
func TestAppendRecordJSONCompat(t *testing.T) {
	n := &event.Notification{
		ID:          "evt-abc",
		Class:       "hospital.blood-test",
		PersonID:    "PRS-1",
		Summary:     "tricky \"summary\"\nwith <&> and \\ chars",
		OccurredAt:  time.Date(2026, 8, 7, 9, 0, 0, 987654321, time.UTC),
		Producer:    "hospital",
		PublishedAt: time.Date(2026, 8, 7, 9, 0, 1, 0, time.UTC),
	}
	const personVal = "c2VhbGVkLWJhc2U2NA==" // what a sealed id looks like
	sealed, _ := base64.URLEncoding.DecodeString(personVal)
	raw := appendRecordJSON(n, sealed)
	if !json.Valid(raw) {
		t.Fatalf("invalid JSON: %s", raw)
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	want := record{
		ID: n.ID, Class: n.Class, PersonID: personVal, Encrypted: true,
		Summary: n.Summary, OccurredAt: n.OccurredAt, Producer: n.Producer,
		PublishedAt: n.PublishedAt,
	}
	if r.ID != want.ID || r.Class != want.Class || r.PersonID != want.PersonID ||
		r.Encrypted != want.Encrypted || r.Summary != want.Summary ||
		r.Producer != want.Producer ||
		!r.OccurredAt.Equal(want.OccurredAt) || !r.PublishedAt.Equal(want.PublishedAt) {
		t.Fatalf("decoded record mismatch:\nwant %+v\n got %+v", want, r)
	}
	// And the reference encoder's output must decode the same way the
	// hand-rolled bytes do (shared wire compatibility).
	ref, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	var r2 record
	if err := json.Unmarshal(ref, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Summary != r.Summary || r2.PersonID != r.PersonID {
		t.Fatalf("reference and hand-rolled decode diverge: %+v vs %+v", r2, r)
	}

	// Records as older builds wrote them: json.Marshal of record (which
	// writes <, > and & as \u00XX escapes, U+2028 and invalid UTF-8 as
	// \u escapes the reader leaves alone), and the E5 baseline's
	// plaintext records. Each decodes to what encoding/json makes of it;
	// the hand-read path takes this build's records and the old ones in
	// the same layout.
	east := time.FixedZone("", 5*3600+30*60)
	for _, tc := range []struct {
		name   string
		data   []byte
		byHand bool
	}{
		{"this build", raw, true},
		{"json.Marshal, HTML escapes", ref, true},
		{"json.Marshal, U+2028 and invalid UTF-8", mustMarshal(t, record{ID: "e", Class: "c.x", PersonID: personVal,
			Encrypted: true, Summary: "line\u2028sep \xff", OccurredAt: time.Date(1969, 7, 20, 20, 17, 40, 0, east)}), false},
		{"json.Marshal, pre-1970 and zero times, an offset", mustMarshal(t, record{ID: "e", Class: "c.x", PersonID: personVal,
			Encrypted: true, Summary: "\x00\x1f\t", OccurredAt: time.Date(1901, 1, 1, 0, 0, 0, 1, east)}), true},
		{"E5 plaintext", []byte(`{"id":"evt-1","class":"c.x","personId":"PRS-1","encrypted":false,"summary":"s",` +
			`"occurredAt":"2010-05-30T09:00:00Z","producer":"hospital","publishedAt":"2010-05-30T09:01:00Z"}`), false},
		{"reordered", []byte(`{"class":"c.x","id":"evt-1","personId":"x","encrypted":true,"summary":"s",` +
			`"occurredAt":"2010-05-30T09:00:00Z","producer":"hospital","publishedAt":"2010-05-30T09:01:00Z"}`), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want record
			if err := json.Unmarshal(tc.data, &want); err != nil {
				t.Fatal(err)
			}
			var hand record
			if got := readRecordJSON(tc.data, &hand); got != tc.byHand {
				t.Errorf("readRecordJSON took %s: %v, want %v", tc.data, got, tc.byHand)
			}
			got, err := decodeRecord(tc.data)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("decodeRecord = %+v, %v; encoding/json decodes %+v", got, err, want)
			}
		})
	}
}

func mustMarshal(t *testing.T, r record) []byte {
	t.Helper()
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recordAgrees is the differential property on one input: whatever
// readRecordJSON accepts, encoding/json accepts with a deeply-equal
// record. It reports whether the reader accepted.
func recordAgrees(t *testing.T, data []byte) bool {
	t.Helper()
	var hand record
	if !readRecordJSON(data, &hand) {
		return false
	}
	var ref record
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("readRecordJSON accepted %q, encoding/json rejects it: %v", data, err)
	}
	if !reflect.DeepEqual(hand, ref) {
		t.Fatalf("readRecordJSON decoded %q to %+v, encoding/json to %+v", data, hand, ref)
	}
	return true
}

// fuzzRecordTime derives an instant in years 1 to 9999 from a string,
// zero for an empty one, in UTC or at an offset within ±14 h.
func fuzzRecordTime(s string) time.Time {
	if s == "" {
		return time.Time{}
	}
	var sec, zone int64
	for i := 0; i < len(s); i++ {
		sec = sec*131 + int64(s[i])
		zone += int64(s[i])
	}
	const year1, span = -62135596800, 9998 * 365 * 86400 // Unix seconds
	t := time.Unix(year1+(sec%span+span)%span, zone%1e9).UTC()
	if zone%3 == 0 {
		return t
	}
	return t.In(time.FixedZone("", int(zone%(28*60)-14*60)*60))
}

// FuzzIndexRecordDifferential holds the hand reader of index records to
// encoding/json: on arbitrary bytes, whatever readRecordJSON accepts,
// encoding/json accepts with a deeply-equal record; and every record
// appendRecordJSON writes for a valid-UTF-8 notification is read by
// hand, so the fallback cannot become our own records' path.
func FuzzIndexRecordDifferential(f *testing.F) {
	f.Add([]byte(`{"id":"evt-1","class":"c.x","personId":"UFJTLTE=","encrypted":true,"summary":"a \"b\"\n\u0001\\",` +
		`"occurredAt":"2010-05-30T09:00:00.5+02:00","producer":"hospital","publishedAt":"0001-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"id":"evt-1","class":"c.x","personId":"PRS-1","encrypted":false,"summary":"s",` +
		`"occurredAt":"2010-05-30T09:00:00Z","producer":"hospital","publishedAt":"2010-05-30T09:01:00Z"}`))
	f.Add([]byte(`{"id":"e","class":"c","personId":"p","encrypted":true,"summary":"\u00e9\u00E9\/\b\u2028",` +
		`"occurredAt":"2010-05-30T09:00:00Z","producer":"p","publishedAt":"2010-05-30T09:01:00Z"}`))
	f.Add([]byte(`{"id":"e","class":"c","personId":"p","encrypted":true,"summary":"s",` +
		`"occurredAt":"2010-05-30T09:00:00Z","producer":"p","publishedAt":"2010-05-30T09:01:00Z"} `))
	f.Add([]byte("evt-1|c.x|sealed\x00bytes|su\"m\\m\na\ry\t\x01\x7f é漢|hospital|when|then"))
	f.Add([]byte("e|c|p|s|p||"))
	f.Fuzz(func(t *testing.T, in []byte) {
		recordAgrees(t, in)

		p := make([]string, 7)
		for i, part := range bytes.SplitN(in, []byte("|"), len(p)) {
			p[i] = strings.ToValidUTF8(string(part), string(utf8.RuneError))
		}
		n := &event.Notification{ID: event.GlobalID(p[0]), Class: event.ClassID(p[1]), Summary: p[3],
			Producer: event.ProducerID(p[4]), OccurredAt: fuzzRecordTime(p[5]), PublishedAt: fuzzRecordTime(p[6])}
		if data := appendRecordJSON(n, []byte(p[2])); !recordAgrees(t, data) {
			t.Fatalf("readRecordJSON declined appendRecordJSON's own %s", data)
		}
	})
}

func TestTimeKeyMatchesReferenceFormat(t *testing.T) {
	cases := []time.Time{
		time.Unix(0, 0),
		time.Unix(0, 1),
		time.Date(2026, 8, 7, 10, 0, 0, 123456789, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC), // negative UnixNano
		time.Date(1901, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for _, tc := range cases {
		if got, want := timeKey(tc), fmt.Sprintf("%020d", tc.UnixNano()); got != want {
			t.Fatalf("timeKey(%v) = %q, want %q", tc, got, want)
		}
	}
}
