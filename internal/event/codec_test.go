package event

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
)

func sampleNotification() *Notification {
	return &Notification{
		ID:          "evt-0123456789abcdef",
		Trace:       "4bf92f3577b34da6",
		SourceID:    "lab-55",
		Class:       "hospital.blood-test",
		PersonID:    "PRS-1",
		Summary:     "blood test completed <&> \"quoted\"",
		OccurredAt:  time.Date(2026, 8, 7, 10, 30, 0, 123456789, time.UTC),
		Producer:    "hospital",
		PublishedAt: time.Date(2026, 8, 7, 10, 30, 1, 0, time.UTC),
	}
}

func TestBinaryNotificationRoundTrip(t *testing.T) {
	cases := []*Notification{
		sampleNotification(),
		{}, // all zero values
		{Class: "a.b", PersonID: "P", OccurredAt: time.Unix(0, 1).UTC()},
	}
	for _, n := range cases {
		data, err := Binary.EncodeNotification(n)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if !frame.IsFrame(data) {
			t.Fatal("encoded frame does not carry the binary magic")
		}
		got, err := Binary.DecodeNotification(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.ID != n.ID || got.Trace != n.Trace || got.SourceID != n.SourceID ||
			got.Class != n.Class || got.PersonID != n.PersonID || got.Summary != n.Summary ||
			got.Producer != n.Producer {
			t.Fatalf("round trip mismatch: %+v vs %+v", n, got)
		}
		if !got.OccurredAt.Equal(n.OccurredAt) || !got.PublishedAt.Equal(n.PublishedAt) {
			t.Fatalf("time round trip mismatch: %v/%v vs %v/%v",
				n.OccurredAt, n.PublishedAt, got.OccurredAt, got.PublishedAt)
		}
	}
}

func TestBinaryEncodeExactSize(t *testing.T) {
	// The hot-path encoder sizes its buffer up front; appends must never
	// grow it (that would mean a second allocation per encode).
	data, err := Binary.EncodeNotification(sampleNotification())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != cap(data) {
		t.Fatalf("encode buffer resized: len %d cap %d", len(data), cap(data))
	}
}

func TestBinaryNotificationEncodeAllocs(t *testing.T) {
	n := sampleNotification()
	avg := testing.AllocsPerRun(200, func() {
		if _, err := Binary.EncodeNotification(n); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Fatalf("EncodeNotification allocates %.1f times per op, want <= 1 (the frame itself)", avg)
	}
}

func TestBinaryDetailRoundTrip(t *testing.T) {
	cases := []*Detail{
		NewDetail("hospital.blood-test", "lab-55", "hospital").
			Set("result", "negative").Set("unit", "mg/dL").Set("note", "<&>\"'"),
		NewDetail("a.b", "s", "p"),                   // empty field map
		{SourceID: "s", Class: "a.b", Producer: "p"}, // nil field map
	}
	for _, d := range cases {
		data, err := Binary.EncodeDetail(d)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := Binary.DecodeDetail(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.SourceID != d.SourceID || got.Class != d.Class || got.Producer != d.Producer {
			t.Fatalf("header mismatch: %+v vs %+v", d, got)
		}
		if len(got.Fields) != len(d.Fields) {
			t.Fatalf("field count mismatch: %d vs %d", len(d.Fields), len(got.Fields))
		}
		for k, v := range d.Fields {
			if got.Fields[k] != v {
				t.Fatalf("field %q mismatch: %q vs %q", k, v, got.Fields[k])
			}
		}
	}
}

func TestBinaryDetailDeterministic(t *testing.T) {
	d := NewDetail("a.b", "s", "p").Set("z", "1").Set("a", "2").Set("m", "3")
	first, err := Binary.EncodeDetail(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		again, err := Binary.EncodeDetail(d.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("detail encoding is not canonical across encodes")
		}
	}
}

func TestBinaryDetailRequestRoundTrip(t *testing.T) {
	cases := []*DetailRequest{
		{
			Requester: "municipality", Class: "hospital.blood-test",
			EventID: "evt-1", Purpose: "social-assistance",
			At:    time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC),
			Trace: "deadbeef00000000",
		},
		{}, // zero values, zero At must survive
	}
	for _, r := range cases {
		data, err := Binary.EncodeDetailRequest(r)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := Binary.DecodeDetailRequest(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Requester != r.Requester || got.Class != r.Class ||
			got.EventID != r.EventID || got.Purpose != r.Purpose || got.Trace != r.Trace {
			t.Fatalf("round trip mismatch: %+v vs %+v", r, got)
		}
		if !got.At.Equal(r.At) || got.At.IsZero() != r.At.IsZero() {
			t.Fatalf("At mismatch: %v vs %v", r.At, got.At)
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	good, err := Binary.EncodeNotification(sampleNotification())
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a valid frame must fail cleanly.
	for i := 0; i < len(good); i++ {
		if _, err := Binary.DecodeNotification(good[:i]); err == nil {
			t.Fatalf("truncated frame of %d bytes decoded without error", i)
		}
	}
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := Binary.DecodeNotification(bad); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[2] = 0x7f
		if _, err := Binary.DecodeNotification(bad); err == nil {
			t.Fatal("unknown version accepted")
		}
	})
	t.Run("wrong type", func(t *testing.T) {
		if _, err := Binary.DecodeDetail(good); err == nil {
			t.Fatal("notification frame accepted as detail")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := Binary.DecodeNotification(append(append([]byte(nil), good...), 0xFF)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
	t.Run("length bomb string", func(t *testing.T) {
		// A frame whose first string claims 2^40 bytes.
		bomb := frame.AppendHeader(nil, frame.Notification)
		bomb = append(bomb, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2^40
		if _, err := Binary.DecodeNotification(bomb); err == nil {
			t.Fatal("length-bomb string accepted")
		}
	})
	t.Run("length bomb map", func(t *testing.T) {
		bomb := frame.AppendHeader(nil, frame.Detail)
		bomb = frame.AppendString(bomb, "s")
		bomb = frame.AppendString(bomb, "a.b")
		bomb = frame.AppendString(bomb, "p")
		bomb = append(bomb, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2^33 fields
		if _, err := Binary.DecodeDetail(bomb); err == nil {
			t.Fatal("length-bomb field count accepted")
		}
	})
}

// The binary frame writes a time as its UnixNano, which exists for the
// years 1678-2262 only: outside them the encoder and both validators
// refuse, instead of carrying the time wrapped around (2300-01-01 used
// to arrive as 1715-06-13); at the edges it round-trips exactly.
func TestBinaryRefusesUnrepresentableTimes(t *testing.T) {
	first, last := time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()
	for _, tc := range []struct {
		at time.Time
		ok bool
	}{
		{time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{last.Add(time.Nanosecond), false},
		{first.Add(-time.Nanosecond), false},
		{last, true},
		{first, true},
	} {
		n := sampleNotification()
		n.OccurredAt = tc.at
		req := &DetailRequest{Requester: "a", Class: "c.x", EventID: "evt-1", Purpose: "care", At: tc.at}
		if err := n.Validate(); (err == nil) != tc.ok || !tc.ok && !errors.Is(err, ErrTimeRange) {
			t.Errorf("Notification.Validate with occurredAt %v: %v", tc.at, err)
		}
		if err := req.Validate(); (err == nil) != tc.ok || !tc.ok && !errors.Is(err, ErrTimeRange) {
			t.Errorf("DetailRequest.Validate with at %v: %v", tc.at, err)
		}
		data, err := Binary.EncodeNotification(n)
		if !tc.ok {
			if !errors.Is(err, ErrTimeRange) {
				back, _ := Binary.DecodeNotification(data)
				t.Errorf("occurredAt %v encoded (%v) and came back as %+v", tc.at, err, back)
			}
			if _, err := Binary.EncodeDetailRequest(req); !errors.Is(err, ErrTimeRange) {
				t.Errorf("detail request at %v encoded: %v", tc.at, err)
			}
			continue
		}
		back, err := Binary.DecodeNotification(data)
		if err != nil || !back.OccurredAt.Equal(tc.at) {
			t.Errorf("occurredAt %v came back as %+v, %v", tc.at, back, err)
		}
	}
}

func TestCodecByName(t *testing.T) {
	for name, want := range map[string]Codec{"": XML, "xml": XML, "binary": Binary} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", name, err)
		}
		if c != want {
			t.Fatalf("CodecByName(%q) = %v, want %v", name, c.Name(), want.Name())
		}
	}
	if _, err := CodecByName("protobuf"); err == nil {
		t.Fatal("unknown codec name accepted")
	}
}

func TestCodecContentTypes(t *testing.T) {
	if XML.ContentType() != "application/xml" || XML.Name() != "xml" {
		t.Fatalf("xml codec identity wrong: %s %s", XML.Name(), XML.ContentType())
	}
	if Binary.ContentType() != "application/x-css-frame" || Binary.Name() != "binary" {
		t.Fatalf("binary codec identity wrong: %s %s", Binary.Name(), Binary.ContentType())
	}
}

func TestXMLCodecMatchesPackageFunctions(t *testing.T) {
	n := sampleNotification()
	viaCodec, err := XML.EncodeNotification(n)
	if err != nil {
		t.Fatal(err)
	}
	viaFunc, err := EncodeNotification(n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaCodec, viaFunc) {
		t.Fatal("XML codec and EncodeNotification disagree")
	}
	if !strings.HasPrefix(string(viaCodec), "<") {
		t.Fatal("XML codec did not produce XML")
	}
	r := &DetailRequest{Requester: "a", Class: "c.x", EventID: "evt-1", Purpose: "care"}
	data, err := XML.EncodeDetailRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := XML.DecodeDetailRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("xml detail request round trip: %+v vs %+v", r, got)
	}
}

// TestBinaryXMLEquivalence: the two codecs must agree on message content,
// which is what the mixed-codec integration test relies on.
func TestBinaryXMLEquivalence(t *testing.T) {
	n := sampleNotification()
	bin, err := Binary.EncodeNotification(n)
	if err != nil {
		t.Fatal(err)
	}
	x, err := XML.EncodeNotification(n)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Binary.DecodeNotification(bin)
	if err != nil {
		t.Fatal(err)
	}
	fromXML, err := XML.DecodeNotification(x)
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.ID != fromXML.ID || fromBin.Class != fromXML.Class ||
		fromBin.PersonID != fromXML.PersonID || fromBin.Summary != fromXML.Summary ||
		fromBin.Producer != fromXML.Producer || fromBin.Trace != fromXML.Trace ||
		!fromBin.OccurredAt.Equal(fromXML.OccurredAt) ||
		!fromBin.PublishedAt.Equal(fromXML.PublishedAt) {
		t.Fatalf("codecs disagree: binary %+v vs xml %+v", fromBin, fromXML)
	}
}
