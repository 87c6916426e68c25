package event

import (
	"bytes"
	"testing"

	"repro/internal/frame"
)

// The binary decoders face untrusted network input, so beyond "never
// panic" they must never size an allocation from a claimed length that
// the payload cannot back (length bombs). Each fuzz target asserts both
// properties plus round-trip stability. Seed frames live under
// testdata/fuzz/<Target>/ alongside the f.Add seeds below.

func FuzzBinaryNotification(f *testing.F) {
	good, err := Binary.EncodeNotification(sampleNotification())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])                                                 // truncated mid-field
	f.Add([]byte{0xC5, 0x5F, 0x01, 0x01})                                     // header only
	f.Add([]byte{0xC5, 0x5F, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // length bomb
	f.Add([]byte{0xC5, 0x5F, 0x02, 0x01})                                     // future version
	f.Add([]byte("<notification/>"))                                          // XML where binary expected
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		n, err := Binary.DecodeNotification(in)
		if err != nil {
			return
		}
		re, err := Binary.EncodeNotification(n)
		if err != nil {
			t.Fatalf("decoded notification does not re-encode: %v", err)
		}
		again, err := Binary.DecodeNotification(re)
		if err != nil {
			t.Fatalf("re-encoded notification does not decode: %v", err)
		}
		re2, err := Binary.EncodeNotification(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("binary notification encoding is not canonical")
		}
	})
}

func FuzzBinaryDetail(f *testing.F) {
	seed := NewDetail("c.x", "src-1", "prod").Set("a", "1").Set("b", "<&>\"'")
	good, err := Binary.EncodeDetail(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3]) // truncated inside last field
	// Claimed field count far beyond what the remaining bytes can hold.
	bomb := frame.AppendHeader(nil, frame.Detail)
	bomb = frame.AppendString(bomb, "s")
	bomb = frame.AppendString(bomb, "c.x")
	bomb = frame.AppendString(bomb, "p")
	bomb = append(bomb, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
	f.Add(bomb)
	f.Add([]byte{0xC5, 0x5F, 0x01, 0x02})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := Binary.DecodeDetail(in)
		if err != nil {
			return
		}
		// Over-allocation guard: every decoded field consumed at least two
		// input bytes, so the map can never out-size the input.
		if len(d.Fields) > len(in) {
			t.Fatalf("decoder materialized %d fields from %d input bytes", len(d.Fields), len(in))
		}
		re, err := Binary.EncodeDetail(d)
		if err != nil {
			t.Fatalf("decoded detail does not re-encode: %v", err)
		}
		d2, err := Binary.DecodeDetail(re)
		if err != nil {
			t.Fatalf("re-encoded detail does not decode: %v", err)
		}
		if len(d2.Fields) != len(d.Fields) || d2.Class != d.Class || d2.SourceID != d.SourceID {
			t.Fatalf("round trip unstable: %+v vs %+v", d, d2)
		}
		re2, _ := Binary.EncodeDetail(d2)
		if !bytes.Equal(re, re2) {
			t.Fatal("binary detail encoding is not canonical")
		}
	})
}

func FuzzBinaryDetailRequest(f *testing.F) {
	good, err := Binary.EncodeDetailRequest(&DetailRequest{
		Requester: "municipality", Class: "c.x", EventID: "evt-1",
		Purpose: "care", Trace: "deadbeef00000000",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:5])
	f.Add([]byte{0xC5, 0x5F, 0x01, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := Binary.DecodeDetailRequest(in)
		if err != nil {
			return
		}
		re, err := Binary.EncodeDetailRequest(r)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		r2, err := Binary.DecodeDetailRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if r2.Requester != r.Requester || r2.EventID != r.EventID || !r2.At.Equal(r.At) {
			t.Fatalf("round trip unstable: %+v vs %+v", r, r2)
		}
	})
}
