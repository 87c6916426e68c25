package index

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/event"
)

// The hand-rolled record encoding must stay decodable into the record
// struct with every value intact — including awkward summaries — so
// stores written by either implementation read back identically.
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
