package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// The registry is the wire format: types numbered 1-20, no two alike,
// with 9 (the retired reshard handoff frame) reserved and never reused.
// A new type is appended here and in DESIGN.md §8.
func TestTypeRegistry(t *testing.T) {
	const reserved = 0
	types := []Type{Notification, Detail, DetailRequest,
		Fault, PublishResponse, SubscribeRequest, SubscribeResponse,
		ShardMap, reserved,
		Hello, Data, Ack, Deny, Heartbeat, Campaign, Grant, DigestReq, Digests, Truncate, SyncStart}
	if len(types) != 20 {
		t.Fatalf("%d types listed, want 20", len(types))
	}
	for i, typ := range types {
		if typ != reserved && int(typ) != i+1 {
			t.Errorf("type listed at position %d has value %d", i+1, typ)
		}
	}
}

// The layers above frame stay apart: replication ships WAL bytes and
// must not pull in the event model or the XML helpers for the sake of
// four header bytes.
func TestReplicationDoesNotDependOnEvent(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "repro/internal/replication").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	deps := "\n" + string(out)
	if !strings.Contains(deps, "\nrepro/internal/frame\n") {
		t.Errorf("replication does not depend on frame:\n%s", out)
	}
	for _, banned := range []string{"repro/internal/event", "repro/internal/xmlx"} {
		if strings.Contains(deps, "\n"+banned+"\n") {
			t.Errorf("replication depends on %s", banned)
		}
	}
}

func TestHeader(t *testing.T) {
	good := AppendHeader(nil, Detail)
	if !bytes.Equal(good, []byte{0xC5, 0x5F, 0x01, 0x02}) || len(good) != HeaderLen {
		t.Fatalf("header = %x", good)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"three bytes", good[:3], ErrShort},
		{"xml", []byte("<notification/>"), ErrMagic},
		{"future version", []byte{0xC5, 0x5F, 0x02, 0x02}, ErrVersion},
	} {
		r := Read(tc.data, Detail)
		if err := r.Done(); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	r := Read(good, Notification)
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "want 1, got 2") {
		t.Errorf("wrong type: %v", err)
	}
	if IsFrame(good[:1]) || !IsFrame(good[:2]) || IsFrame([]byte("<a/>")) {
		t.Error("IsFrame sniffs the two magic bytes and nothing else")
	}
}

// Every append primitive writes exactly the bytes its Len helper
// promises, and the reader gets the same values back.
func TestFieldsRoundTrip(t *testing.T) {
	times := []time.Time{{}, time.Unix(0, 1).UTC(), time.Unix(0, -1).UTC(),
		time.Date(2026, 8, 7, 10, 30, 0, 123456789, time.UTC),
		time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()}
	strs := []string{"", "a", strings.Repeat("x", 127), strings.Repeat("y", 128), "é漢\x00\xff"}
	ints := []uint64{0, 1, 127, 128, 1 << 14, 1<<63 - 1, math.MaxUint64}

	size := HeaderLen
	dst := AppendHeader(nil, Data)
	for _, v := range times {
		size += TimeLen(v)
		dst = AppendTime(dst, v)
	}
	for _, v := range strs {
		size += StringLen(v)
		dst = AppendString(dst, v)
	}
	for _, v := range ints {
		size += UvarintLen(v)
		dst = binary.AppendUvarint(dst, v)
	}
	dst = append(dst, 0xef, 0xbe, 0xad, 0xde)
	size += 4
	if len(dst) != size {
		t.Fatalf("wrote %d bytes, the Len helpers promised %d", len(dst), size)
	}
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift} {
			if got, want := UvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
				t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
			}
		}
	}

	r := Read(dst, Data)
	for _, want := range times {
		if got := r.Time(); !got.Equal(want) || got.IsZero() != want.IsZero() {
			t.Errorf("time %v came back as %v", want, got)
		}
	}
	for _, want := range strs {
		if got := r.String(); got != want {
			t.Errorf("string %q came back as %q", want, got)
		}
	}
	for _, want := range ints {
		if got := r.Uvarint(); got != want {
			t.Errorf("uvarint %d came back as %d", want, got)
		}
	}
	if !r.More() {
		t.Error("More is false with the CRC unread")
	}
	if err := r.Done(); !errors.Is(err, ErrTrail) || r.Err() != nil {
		t.Errorf("with the CRC unread: Done %v, Err %v", err, r.Err())
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("uint32 = %#x", got)
	}
	if r.More() || r.Done() != nil {
		t.Errorf("at the end: More %v, Done %v", r.More(), r.Done())
	}
}

// The first failure sticks: later reads return zero values, Done and
// Err keep reporting it, and a loop over a refused count does not run.
func TestReaderFailures(t *testing.T) {
	payload := func(p ...byte) Reader { return Read(append(AppendHeader(nil, Data), p...), Data) }
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20} // uvarint 2^40
	for _, tc := range []struct {
		name string
		r    Reader
		read func(r *Reader)
		want error
	}{
		{"string longer than the payload", payload(0x05, 'a', 'b'), func(r *Reader) { _ = r.String() }, ErrLength},
		{"string of 2^40 bytes", payload(huge...), func(r *Reader) { r.Bytes() }, ErrLength},
		{"varint cut short", payload(0x80), func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"varint of eleven bytes", payload(bytes.Repeat([]byte{0xff}, 11)...), func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"uint32 of three bytes", payload(1, 2, 3), func(r *Reader) { r.Uint32() }, ErrShort},
		{"byte of an empty payload", payload(), func(r *Reader) { r.Byte() }, ErrShort},
		{"time with no presence byte", payload(), func(r *Reader) { r.Time() }, ErrShort},
		{"time with presence 2", payload(2, 0), func(r *Reader) { r.Time() }, ErrPresence},
		{"time present, value cut short", payload(1, 0x80), func(r *Reader) { r.Time() }, ErrVarint},
		{"count of 2^40", payload(huge...), func(r *Reader) { r.Count(1) }, ErrBomb},
		{"count 3 at 2 bytes each in 5 bytes", payload(3, 0, 0, 0, 0, 0), func(r *Reader) { r.Count(2) }, ErrBomb},
		{"the first failure wins", payload(0x05, 'a'), func(r *Reader) { _ = r.String(); r.Uint32(); r.Time() }, ErrLength},
	} {
		tc.read(&tc.r)
		if tc.r.Uvarint() != 0 || tc.r.String() != "" || tc.r.Uint32() != 0 || tc.r.Byte() != 0 || !tc.r.Time().IsZero() || tc.r.Count(1) != 0 || tc.r.More() {
			t.Errorf("%s: a failed reader still yields values", tc.name)
		}
		if err := tc.r.Done(); !errors.Is(err, tc.want) || tc.r.Err() != err {
			t.Errorf("%s: Done %v, Err %v, want %v", tc.name, err, tc.r.Err(), tc.want)
		}
	}
	if r := payload(2, 0, 0, 0, 0); r.Count(2) != 2 || r.Err() != nil {
		t.Error("a count the payload can exactly hold was refused")
	}
}
