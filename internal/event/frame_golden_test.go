package event

import (
	"encoding/hex"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// The golden frame tables pin the binary form of frame types 1-3 byte
// for byte: each row's production encoding must equal the committed hex
// literal, and the literal must decode to the row's value. The other
// frame types are pinned the same way in internal/transport (4-7),
// internal/cluster (8-9) and internal/replication (10-20).

func goldenFrame(t *testing.T, name, want string, got []byte, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if hex.EncodeToString(got) != want {
		t.Errorf("%s: frame bytes changed\n got %x\nwant %s", name, got, want)
	}
	data, err := hex.DecodeString(want)
	if err != nil {
		t.Errorf("%s: bad literal: %v", name, err)
	}
	return data
}

func TestGoldenNotificationFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    *Notification
		want string
	}{
		{"every field", sampleNotification(),
			"c55f0101146576742d303132333435363738396162636465661034626639326633353737623334646136066c61622d353513686f73706974616c2e626c6f6f642d74657374055052532d3121626c6f6f64207465737420636f6d706c65746564203c263e202271756f7465642208686f73706974616c01aaf4f2a2d6cdbfc9310180e8eae6dccdbfc931"},
		{"all zero", &Notification{},
			"c55f0101000000000000000000"},
		{"as published: no id, no trace, no publish time", &Notification{SourceID: "lab-777", Class: "hospital.blood-test",
			PersonID: "PRS-0042", Summary: "blood test", Producer: "hospital-s-maria",
			OccurredAt: time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)},
			"c55f01010000076c61622d37373713686f73706974616c2e626c6f6f642d74657374085052532d303034320a626c6f6f64207465737410686f73706974616c2d732d6d61726961018080c2fdcd9af0c83100"},
		{"before 1970: the zigzag of a negative UnixNano", &Notification{Class: "a.b", PersonID: "P",
			OccurredAt: time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC)},
			"c55f010100000003612e6201500000010100"},
	} {
		got, err := Binary.EncodeNotification(tc.n)
		data := goldenFrame(t, tc.name, tc.want, got, err)
		back, err := Binary.DecodeNotification(data)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
		} else if !reflect.DeepEqual(back, tc.n) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, back, tc.n)
		}
	}
}

func TestGoldenDetailFrame(t *testing.T) {
	twelve := NewDetail("hospital.blood-test", "hospital-src-00000012", "hospital-s-maria")
	for i := 0; i < 12; i++ {
		twelve.Set(FieldName("field-"+strconv.Itoa(i)), "value "+strconv.Itoa(i*i))
	}
	for _, tc := range []struct {
		name string
		d    *Detail
		want string
	}{
		{"no fields", NewDetail("a.b", "s", "p"),
			"c55f0102017303612e62017000"},
		{"one field", NewDetail("hospital.blood-test", "lab-900", "hospital-s-maria").Set("hemoglobin", "13.1"),
			"c55f0102076c61622d39303013686f73706974616c2e626c6f6f642d7465737410686f73706974616c2d732d6d61726961010a68656d6f676c6f62696e0431332e31"},
		{"twelve fields, in sorted name order (field-10 before field-2)", twelve,
			"c55f010215686f73706974616c2d7372632d303030303030313213686f73706974616c2e626c6f6f642d7465737410686f73706974616c2d732d6d617269610c076669656c642d300776616c75652030076669656c642d310776616c75652031086669656c642d31300976616c756520313030086669656c642d31310976616c756520313231076669656c642d320776616c75652034076669656c642d330776616c75652039076669656c642d340876616c7565203136076669656c642d350876616c7565203235076669656c642d360876616c7565203336076669656c642d370876616c7565203439076669656c642d380876616c7565203634076669656c642d390876616c7565203831"},
	} {
		got, err := Binary.EncodeDetail(tc.d)
		data := goldenFrame(t, tc.name, tc.want, got, err)
		back, err := Binary.DecodeDetail(data)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
		} else if !reflect.DeepEqual(back, tc.d) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, back, tc.d)
		}
	}
}

func TestGoldenDetailRequestFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    *DetailRequest
		want string
	}{
		{"with trace and time", &DetailRequest{Requester: "family-doctor", Class: "hospital.blood-test",
			EventID: "evt-0123456789abcdef", Purpose: "healthcare-treatment", Trace: "feedbeefcafe0001",
			At: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)},
			"c55f01030d66616d696c792d646f63746f7213686f73706974616c2e626c6f6f642d74657374146576742d30313233343536373839616263646566146865616c7468636172652d74726561746d656e741066656564626565666361666530303031018cc8b1c9c3bce58631"},
		{"without trace, zero time", &DetailRequest{Requester: "org/dept/doc", Class: "c.x",
			EventID: "evt-1", Purpose: "care"},
			"c55f01030c6f72672f646570742f646f6303632e78056576742d3104636172650000"},
	} {
		got, err := Binary.EncodeDetailRequest(tc.r)
		data := goldenFrame(t, tc.name, tc.want, got, err)
		back, err := Binary.DecodeDetailRequest(data)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
		} else if !reflect.DeepEqual(back, tc.r) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, back, tc.r)
		}
	}
}
