package jsonx

import (
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"
)

func TestAppendStringRoundTrips(t *testing.T) {
	cases := []string{
		"",
		"plain",
		`with "quotes" and \backslashes\`,
		"control\n\r\t\x00\x1fchars",
		"unicode ☃ and html <&>",
		"trailing\\",
	}
	for _, in := range cases {
		enc := AppendString(nil, in)
		if !json.Valid(enc) {
			t.Fatalf("AppendString(%q) produced invalid JSON: %s", in, enc)
		}
		var got string
		if err := json.Unmarshal(enc, &got); err != nil {
			t.Fatalf("AppendString(%q) does not unmarshal: %v", in, err)
		}
		if got != in {
			t.Fatalf("round trip mismatch: %q -> %s -> %q", in, enc, got)
		}
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	// For strings with nothing to escape the bytes must match
	// encoding/json exactly.
	for _, in := range []string{"", "abc", "evt-123", "hospital.blood-test"} {
		want, _ := json.Marshal(in)
		if got := AppendString(nil, in); string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %s, want %s", in, got, want)
		}
	}
}

// readString runs one String over doc and reports what it returned and
// whether the pass consumed doc.
func readString(doc []byte) (string, bool) {
	r := NewReader(doc)
	s := r.String()
	return s, r.Done()
}

// The reader takes back whatever AppendString writes for valid UTF-8.
func TestReaderStringRoundTrips(t *testing.T) {
	same := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		got, ok := readString(AppendString(nil, s))
		return ok && got == s
	}
	for _, s := range []string{"", "plain", `"\`, "\n\r\t\x00\x1f\x7f", "é漢\U0001F600", "<&>", "trailing\\"} {
		if !same(s) {
			t.Errorf("String does not read back AppendString(%q)", s)
		}
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// What the reader accepts, encoding/json reads the same; everything
// AppendString never writes is declined.
func TestReaderString(t *testing.T) {
	for _, tc := range []struct {
		doc    string
		accept bool
	}{
		{`"a\"b\\c\nd\re\tf"`, true},
		{`"\u0000\u001f\u00e9\u00E9\u003c"`, true},
		{`"é漢"`, true},

		{`"\/"`, false},
		{`"\b"`, false},
		{`"\f"`, false},
		{`"\u0100"`, false},
		{`"\u2028"`, false},
		{`"\ud83d\ude00"`, false},
		{`"\u00g0"`, false},
		{`"\u00"`, false},
		{`"\`, false},
		{"\"\x01\"", false},
		{"\"\xff\"", false},
		{`"open`, false},
		{`open"`, false},
		{`"a" `, false},
	} {
		got, ok := readString([]byte(tc.doc))
		if ok != tc.accept {
			t.Errorf("%s: accepted %v, want %v", tc.doc, ok, tc.accept)
			continue
		}
		if !ok {
			continue
		}
		var ref string
		if err := json.Unmarshal([]byte(tc.doc), &ref); err != nil || got != ref {
			t.Errorf("%s: read %q, encoding/json %q (%v)", tc.doc, got, ref, err)
		}
	}
}

// Time reads what encoding/json reads into a time.Time, and declines
// where encoding/json fails.
func TestReaderTime(t *testing.T) {
	for _, doc := range []string{
		`"2026-08-07T09:00:00.987654321Z"`, `"0001-01-01T00:00:00Z"`, `"1901-01-01T00:00:00+05:30"`,
		`"2026-08-07T09:00:00Z"`, `"2026-08-07 09:00:00Z"`, `"2026-08-07T09:00:00+24:00"`, `"20"`, `""`, `"2026`,
	} {
		r := NewReader([]byte(doc))
		got := r.Time()
		var ref time.Time
		err := json.Unmarshal([]byte(doc), &ref)
		if r.Done() != (err == nil) {
			t.Errorf("%s: reader done %v, encoding/json err %v", doc, r.Done(), err)
		} else if err == nil && !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: read %v, encoding/json %v", doc, got, ref)
		}
	}
}
