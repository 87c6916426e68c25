package transport

import (
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/event"
)

// The golden frame table pins the binary form of the four control
// envelopes (frame types 4-7) byte for byte, as wire_golden_test.go
// pins their XML form: each row's production encoding must equal the
// committed hex literal, and the literal must decode to the row's value.

// goldenFrame is the production binary encoding of an envelope.
func goldenFrame(msg any) []byte { return encodeEnvelope(event.Binary, msg.(envelope)) }

// goldenUnframe is the production decoding of an envelope of msg's
// kind.
func goldenUnframe(data []byte, msg any) (any, error) {
	switch msg.(type) {
	case *Fault:
		return decodeEnvelope(data, readFault)
	case *publishResponse:
		return decodeEnvelope(data, readPublishResponse)
	case *subscribeRequest:
		return decodeEnvelope(data, readSubscribeRequest)
	case *subscribeResponse:
		return decodeEnvelope(data, readSubscribeResponse)
	}
	panic("not an envelope")
}

func TestGoldenEnvelopeFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  any
		want string
	}{
		{"fault, pre-shard short form: the frame ends after the message",
			&Fault{Code: CodeAccessDenied, Message: "no policy for you"},
			"c55f01040d6163636573732d64656e696564116e6f20706f6c69637920666f7220796f75"},
		{"fault, wrong-shard redirect: owner and map version as decimal strings",
			&Fault{Code: CodeWrongShard, Message: "key owned by shard 3", Shard: "3", MapVersion: 42},
			"c55f01040b77726f6e672d7368617264146b6579206f776e656420627920736861726420330133023432"},
		{"fault, not-primary from an unsharded replica: empty shard, map version only",
			&Fault{Code: CodeNotPrimary, Message: "replica", MapVersion: 7},
			"c55f01040b6e6f742d7072696d617279077265706c696361000137"},
		{"publish response",
			&publishResponse{EventID: "evt-0123456789abcdef"},
			"c55f0105146576742d30313233343536373839616263646566"},
		{"publish response, parked by the relay: empty id",
			&publishResponse{},
			"c55f010500"},
		{"subscribe request, binary callbacks",
			&subscribeRequest{Actor: "family-doctor", Class: "hospital.blood-test", Callback: "http://consumer:9/cb", Codec: "binary"},
			"c55f01060d66616d696c792d646f63746f7213686f73706974616c2e626c6f6f642d7465737414687474703a2f2f636f6e73756d65723a392f63620662696e617279"},
		{"subscribe request, default callback codec",
			&subscribeRequest{Actor: "org/dept/doc", Class: "c.x", Callback: "http://cb.example/n"},
			"c55f01060c6f72672f646570742f646f6303632e7813687474703a2f2f63622e6578616d706c652f6e00"},
		{"subscribe response",
			&subscribeResponse{ID: "sub-000007"},
			"c55f01070a7375622d303030303037"},
	} {
		if got := goldenFrame(tc.msg); hex.EncodeToString(got) != tc.want {
			t.Errorf("%s: frame bytes changed\n got %x\nwant %s", tc.name, got, tc.want)
		}
		data, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Errorf("%s: bad literal: %v", tc.name, err)
			continue
		}
		back, err := goldenUnframe(data, tc.msg)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
		} else if !reflect.DeepEqual(back, tc.msg) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, back, tc.msg)
		}
	}
}
