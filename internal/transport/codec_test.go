package transport

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/schema"
)

func TestControlFrameRoundTrips(t *testing.T) {
	f := &Fault{Code: CodeAccessDenied, Message: "no policy for you"}
	var back Fault
	if err := decodeFaultFrame(encodeFaultFrame(f), &back); err != nil {
		t.Fatal(err)
	}
	if back.Code != f.Code || back.Message != f.Message {
		t.Fatalf("fault round trip: %+v != %+v", back, f)
	}

	gid, err := decodePublishResponseFrame(encodePublishResponseFrame("evt-42"))
	if err != nil || gid != "evt-42" {
		t.Fatalf("publishResponse round trip: %q, %v", gid, err)
	}

	req := &subscribeRequest{Actor: "family-doctor", Class: "hospital.blood-test",
		Callback: "http://consumer:9/cb", Codec: "binary"}
	dec, err := decodeSubscribeRequestFrame(encodeSubscribeRequestFrame(req))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Actor != req.Actor || dec.Class != req.Class ||
		dec.Callback != req.Callback || dec.Codec != req.Codec {
		t.Fatalf("subscribeRequest round trip: %+v != %+v", dec, req)
	}

	id, err := decodeSubscribeResponseFrame(encodeSubscribeResponseFrame("sub-000007"))
	if err != nil || id != "sub-000007" {
		t.Fatalf("subscribeResponse round trip: %q, %v", id, err)
	}
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
