package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/frame"
	"repro/internal/index"
	"repro/internal/schema"
)

// fieldsFrame builds a frame of the given type whose payload is the
// given string fields, as a peer of any version might send it.
func fieldsFrame(t frame.Type, fields ...string) []byte {
	out := frame.AppendHeader(nil, t)
	for _, f := range fields {
		out = frame.AppendString(out, f)
	}
	return out
}

// The fault frame's optional redirect pair: absent in the pre-shard
// short form, and when present its map version must be a number — read
// as 0, a wrong-shard redirect would never make the client refresh its
// map. The XML reader declines the same input.
func TestFaultFrameRedirectPair(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fields []string
		want   *Fault // nil: the decode must fail
	}{
		{"pre-shard short form: the frame ends after the message",
			[]string{"access-denied", "no"}, &Fault{Code: "access-denied", Message: "no"}},
		{"redirect pair",
			[]string{"wrong-shard", "m", "3", "42"}, &Fault{Code: "wrong-shard", Message: "m", Shard: "3", MapVersion: 42}},
		{"empty owner, version only",
			[]string{"not-primary", "m", "", "7"}, &Fault{Code: "not-primary", Message: "m", MapVersion: 7}},
		{"fields after the pair are skipped",
			[]string{"wrong-shard", "m", "3", "42", "from a newer peer"}, &Fault{Code: "wrong-shard", Message: "m", Shard: "3", MapVersion: 42}},
		{"version is not a number", []string{"wrong-shard", "m", "3", "4x2"}, nil},
		{"version is empty", []string{"wrong-shard", "m", "3", ""}, nil},
		{"version is negative", []string{"wrong-shard", "m", "3", "-1"}, nil},
		{"version overflows uint64", []string{"wrong-shard", "m", "3", "18446744073709551616"}, nil},
		{"owner without a version", []string{"wrong-shard", "m", "3"}, nil},
	} {
		got, err := decodeEnvelope(fieldsFrame(frame.Fault, tc.fields...), readFault)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%s: decoded %+v, want an error", tc.name, got)
		case tc.want != nil && (err != nil || !reflect.DeepEqual(got, tc.want)):
			t.Errorf("%s: decoded %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	if f, err := decodeEnvelope([]byte(`<fault code="wrong-shard" shard="3" mapVersion="4x2">m</fault>`), readFault); err == nil {
		t.Errorf("XML fault with a malformed mapVersion decoded: %+v", f)
	}
}

// controlFrames is one valid frame per envelope, the fault in both its
// forms.
var controlFrames = [][]byte{
	fieldsFrame(frame.Fault, "access-denied", "no policy for you"),
	fieldsFrame(frame.Fault, "wrong-shard", "m", "3", "42"),
	fieldsFrame(frame.PublishResponse, "evt-42"),
	fieldsFrame(frame.SubscribeRequest, "family-doctor", "hospital.blood-test", "http://consumer:9/cb", "binary"),
	fieldsFrame(frame.SubscribeResponse, "sub-000007"),
}

// reframe decodes data as each of the four envelopes in turn and
// returns the re-encoding of the one that accepted it.
func reframe(data []byte) ([]byte, error) {
	var m envelope
	var err error
	switch {
	case len(data) < frame.HeaderLen:
		return nil, frame.ErrShort
	case data[3] == byte(frame.Fault):
		m, err = decodeEnvelope(data, readFault)
	case data[3] == byte(frame.PublishResponse):
		m, err = decodeEnvelope(data, readPublishResponse)
	case data[3] == byte(frame.SubscribeRequest):
		m, err = decodeEnvelope(data, readSubscribeRequest)
	default:
		m, err = decodeEnvelope(data, readSubscribeResponse)
	}
	if err != nil {
		return nil, err
	}
	return m.appendFrame(nil), nil
}

// Every truncation of an envelope frame fails to decode — except the
// redirect fault cut right after its message, which is the short form.
func TestControlFrameHostileInputs(t *testing.T) {
	shortForm := len(fieldsFrame(frame.Fault, "wrong-shard", "m"))
	for i, good := range controlFrames {
		if re, err := reframe(good); err != nil || !bytes.Equal(re, good) {
			t.Fatalf("frame %d: re-encoded to %x, %v; want %x", i, re, err, good)
		}
		for cut := 0; cut < len(good); cut++ {
			if _, err := reframe(good[:cut]); err == nil && !(i == 1 && cut == shortForm) {
				t.Errorf("frame %d cut to %d of %d bytes decoded", i, cut, len(good))
			}
		}
		bad := bytes.Clone(good)
		bad[3] = byte(frame.Notification)
		if _, err := decodeEnvelope(bad, readFault); err == nil {
			t.Errorf("frame %d: a notification-typed frame decoded as a fault", i)
		}
	}
	// A string claiming 2^40 bytes.
	bomb := append(frame.AppendHeader(nil, frame.SubscribeResponse), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	if _, err := reframe(bomb); !errors.Is(err, frame.ErrLength) {
		t.Errorf("length bomb: %v, want %v", err, frame.ErrLength)
	}
}

// FuzzControlFrame: the envelope decoders never panic, and what one
// accepts re-encodes to a frame that decodes to the same bytes again.
// (Not to the input's bytes: an envelope may carry trailing fields, and
// binary.Uvarint accepts a length padded with continuation bytes.)
func FuzzControlFrame(f *testing.F) {
	for _, good := range controlFrames {
		f.Add(good)
		f.Add(good[:len(good)-1])
	}
	f.Add(fieldsFrame(frame.Fault, "wrong-shard", "m", "3", "4x2"))
	f.Add([]byte("<fault code=\"c\">m</fault>"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		if !frame.IsFrame(in) {
			return // XML: FuzzXMLEnvelopeDifferential's ground
		}
		re, err := reframe(in)
		if err != nil {
			return
		}
		if len(re) > len(in) {
			t.Fatalf("%x re-encoded longer, to %x", in, re)
		}
		again, err := reframe(re)
		if err != nil || !bytes.Equal(again, re) {
			t.Fatalf("%x re-encoded to %x, which re-encodes to %x, %v", in, re, again, err)
		}
	})
}

// A binary-codec client must run the full publish → subscribe → details
// loop against an unmodified server, and its faults must keep their
// error identity across the wire.
func TestBinaryCodecEndToEnd(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	bin := NewClient(r.ctrlServer.URL, nil, WithCodec(event.Binary))

	var mu sync.Mutex
	var got []*event.Notification
	receiver := httptest.NewServer(NewNotificationReceiver(func(n *event.Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	}))
	defer receiver.Close()
	if _, err := bin.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, receiver.URL); err != nil {
		t.Fatalf("binary Subscribe: %v", err)
	}

	d0 := event.NewDetail(schema.ClassBloodTest, "src-bin", "hospital").
		Set("patient-id", "PRS-9").
		Set("exam-date", "2010-05-30").
		Set("hemoglobin", "14.2").
		Set("aids-test", "negative")
	if err := r.gw.Persist(d0); err != nil {
		t.Fatal(err)
	}
	gid, err := bin.Publish(context.Background(), &event.Notification{
		SourceID: "src-bin", Class: schema.ClassBloodTest, PersonID: "PRS-9",
		Summary: "blood test", OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
		Producer: "hospital",
	})
	if err != nil {
		t.Fatalf("binary Publish: %v", err)
	}
	if gid == "" {
		t.Fatal("binary Publish returned empty id")
	}
	if !r.ctrl.Flush(5 * time.Second) {
		t.Fatal("bus did not drain")
	}
	mu.Lock()
	delivered := len(got)
	var cb *event.Notification
	if delivered > 0 {
		cb = got[0]
	}
	mu.Unlock()
	if delivered != 1 {
		t.Fatalf("binary callback deliveries = %d, want 1", delivered)
	}
	if cb.ID != gid || cb.PersonID != "PRS-9" || cb.SourceID != "" {
		t.Fatalf("binary callback notification: %+v", cb)
	}

	// Detail request/response in binary framing.
	d, err := bin.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	})
	if err != nil {
		t.Fatalf("binary RequestDetails: %v", err)
	}
	if v, _ := d.Get("patient-id"); v != "PRS-9" {
		t.Errorf("patient-id = %q", v)
	}
	if _, leaked := d.Get("aids-test"); leaked {
		t.Error("aids-test leaked over the binary wire")
	}

	// Faults answered in binary keep their sentinel identity.
	_, err = bin.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: "evt-ghost", Purpose: event.PurposeHealthcareTreatment,
	})
	if !errors.Is(err, enforcer.ErrUnknownEvent) {
		t.Errorf("binary fault identity = %v, want enforcer.ErrUnknownEvent", err)
	}
}

// A time only XML can spell (the binary frame carries 1678-2262) is
// refused at the door with a bad-request fault in whichever codec the
// caller negotiated: it used to be accepted over XML and reach binary
// subscribers, and the index's time key, wrapped around to 1715.
func TestUnrepresentableTimeIsBadRequest(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	bin := NewClient(r.ctrlServer.URL, nil, WithCodec(event.Binary))
	var delivered atomic.Int32
	receiver := httptest.NewServer(NewNotificationReceiver(func(*event.Notification) { delivered.Add(1) }))
	defer receiver.Close()
	if _, err := bin.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, receiver.URL); err != nil {
		t.Fatal(err)
	}

	y2300 := time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	n := &event.Notification{SourceID: "src-2300", Class: schema.ClassBloodTest, PersonID: "PRS-9",
		Summary: "blood test", OccurredAt: y2300, Producer: "hospital"}
	body, err := event.XML.EncodeNotification(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{event.ContentTypeXML, event.ContentTypeBinary} {
		req, _ := http.NewRequest(http.MethodPost, r.ctrlServer.URL+"/ws/publish", bytes.NewReader(body))
		req.Header.Set("Content-Type", event.ContentTypeXML)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		f, err := decodeEnvelope(data, readFault)
		if resp.StatusCode != http.StatusBadRequest || err != nil || f.Code != CodeBadRequest ||
			frame.IsFrame(data) != (accept == event.ContentTypeBinary) {
			t.Errorf("Accept %s: status %d, fault %+v (%v), body %q", accept, resp.StatusCode, f, err, data)
		}
	}
	// A binary publisher is stopped by its own encoder.
	if _, err := bin.Publish(context.Background(), n); !errors.Is(err, event.ErrTimeRange) {
		t.Errorf("binary Publish: %v, want %v", err, event.ErrTimeRange)
	}
	var f *Fault
	_, err = r.client.RequestDetails(context.Background(), &event.DetailRequest{Requester: "family-doctor",
		Class: schema.ClassBloodTest, EventID: "evt-1", Purpose: event.PurposeHealthcareTreatment, At: y2300})
	if !errors.As(err, &f) || f.Code != CodeBadRequest {
		t.Errorf("XML RequestDetails: %v, want a %s fault", err, CodeBadRequest)
	}

	r.ctrl.Flush(5 * time.Second)
	if got := delivered.Load(); got != 0 {
		t.Errorf("%d notifications reached the binary subscriber", got)
	}
	found, err := r.client.InquireIndex(context.Background(), "family-doctor", index.Inquiry{PersonID: "PRS-9"})
	if err != nil || len(found) != 0 {
		t.Errorf("index holds %d notifications (%v), want none", len(found), err)
	}
}

// XML and binary subscribers on the same class must both receive the
// publication, each in its own negotiated callback format.
func TestMixedCodecSubscribers(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)

	type capture struct {
		mu  sync.Mutex
		got []*event.Notification
	}
	newReceiver := func(c *capture) *httptest.Server {
		return httptest.NewServer(NewNotificationReceiver(func(n *event.Notification) {
			c.mu.Lock()
			c.got = append(c.got, n)
			c.mu.Unlock()
		}))
	}
	var xmlGot, binGot capture
	xmlRecv := newReceiver(&xmlGot)
	defer xmlRecv.Close()
	binRecv := newReceiver(&binGot)
	defer binRecv.Close()

	if _, err := r.client.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, xmlRecv.URL); err != nil {
		t.Fatal(err)
	}
	bin := NewClient(r.ctrlServer.URL, nil, WithCodec(event.Binary))
	if _, err := bin.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, binRecv.URL); err != nil {
		t.Fatal(err)
	}

	gid := r.produce(t, "src-mixed", "PRS-7")
	if !r.ctrl.Flush(5 * time.Second) {
		t.Fatal("bus did not drain")
	}

	take := func(c *capture) *event.Notification {
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.got) != 1 {
			t.Fatalf("deliveries = %d, want 1", len(c.got))
		}
		return c.got[0]
	}
	nx, nb := take(&xmlGot), take(&binGot)
	if nx.ID != gid || nb.ID != gid {
		t.Fatalf("ids: xml %s binary %s, want %s", nx.ID, nb.ID, gid)
	}
	// Identical content through both codecs.
	if nx.Class != nb.Class || nx.PersonID != nb.PersonID || nx.Summary != nb.Summary ||
		nx.Producer != nb.Producer || nx.Trace != nb.Trace ||
		!nx.OccurredAt.Equal(nb.OccurredAt) || !nx.PublishedAt.Equal(nb.PublishedAt) {
		t.Fatalf("mixed-codec divergence:\nxml    %+v\nbinary %+v", nx, nb)
	}
	if nx.SourceID != "" || nb.SourceID != "" {
		t.Fatal("source id leaked to a subscriber")
	}
}
