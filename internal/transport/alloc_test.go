//go:build !race

// The race detector inflates allocation counts, and `make race` runs
// the whole tree, so the budget is asserted only in uninstrumented runs.

package transport

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/url"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
)

// TestInquiryAllocBudget is the allocation-regression gate of the
// inquiry path, shaped like core's TestPublishAllocBudget: lowest of
// five rounds of testing.AllocsPerRun, budget = measured + 5 %. Two
// rows over an 8-result window: the controller answering
// (Controller.InquireIndex and the response encode), which reads every
// record from the store, decrypts and decodes it on every call; and the
// client decoding the answer. Measured at 82db5bc (encoding/json
// records, escaped nested documents, a string round trip per
// notification on both sides): 210 controller (cold notification
// cache), 87 client decode. Then 153 and 62; then 146 and 62 once the
// index scan took each event id from its key; then 115 without the read
// caches, on a memory-backed controller whose reads still borrowed the
// arena. The controller now stores on disk, as every daemon does, and
// costs 123: one fresh slice per record read from the WAL, which a
// memory store's copying reads would cost as well. The rest is mostly
// the strings and structs a notification is made of, its AES-GCM open
// and the audit append. Neither row sends a request, so both read the
// same (123 and 62) once outgoing calls left net/http's Transport, and
// again once incoming calls left net/http's server.
func TestInquiryAllocBudget(t *testing.T) {
	const window, rounds, runs = 8, 5, 200
	ctrl, err := core.New(core.Config{MasterKey: bytes.Repeat([]byte{4}, crypto.KeySize), DefaultConsent: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.RegisterProducer("hospital", "H"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("family-doctor", "D"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment}, Fields: []event.FieldName{"patient-id"},
	}); err != nil {
		t.Fatal(err)
	}
	// One second apart; the window is the middle 8 of 3 windows' worth.
	base := time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 3*window; i++ {
		if _, err := ctrl.Publish(&event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("lab-%06d", i)), Class: schema.ClassBloodTest,
			PersonID: fmt.Sprintf("PRS-%04d", i), Summary: "blood test", Producer: "hospital",
			OccurredAt: base.Add(time.Duration(i) * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	from := base.Add(window * time.Second)
	q := index.Inquiry{Class: schema.ClassBloodTest, From: from, To: from.Add((window - 1) * time.Second)}
	answer := func() []byte {
		res, err := ctrl.InquireIndex("family-doctor", q)
		if err != nil || len(res) != window {
			t.Fatalf("inquiry: %d results, %v", len(res), err)
		}
		body, err := appendInquiryResponse(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	body := answer() // the client's input

	for _, tc := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"controller", func() { answer() }, 129},
		{"client decode", func() {
			if notes, err := decodeInquiryResponse(body); err != nil || len(notes) != window {
				t.Fatalf("decode: %d notifications, %v", len(notes), err)
			}
		}, 66},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := math.Inf(1)
			for round := 0; round < rounds; round++ {
				got = min(got, testing.AllocsPerRun(runs, tc.run))
			}
			t.Logf("%s: %.0f allocs/op (budget %.0f)", tc.name, got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s allocates %.0f/op, budget %.0f", tc.name, got, tc.budget)
			}
		})
	}
}

// TestCallbackAllocBudget gates the garbage of one notification
// delivery, which sets how often the controller's collector runs now
// that the memtable is off its heap: one deliver to a loopback
// NotificationReceiver, the controller's client and the in-process
// receiver counted together, in both codecs. Lowest of five rounds of
// testing.AllocsPerRun, budget = measured + 5 %, for a notification
// that carries a trace (X-Trace-Id and traceparent). Measured 102
// binary and 103 XML through http.Client and net/http's Transport;
// 73 and 74 through the synchronous round tripper, which drops the
// client's deadline goroutine and timer and the transport's hand-offs
// to its read and write loops; 59 and 60 once the request is written
// without Request.Write and the receiver is served by HTTPServer
// instead of net/http's server; 36 and 37 once the calling side stops
// building a URL, contexts and header maps per attempt and reads the
// answer's head itself (see TestCallAllocBudget), and the callback URL
// is parsed once per subscription.
func TestCallbackAllocBudget(t *testing.T) {
	const rounds, runs = 5, 200
	ctrl, err := core.New(core.Config{MasterKey: bytes.Repeat([]byte{4}, crypto.KeySize)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	srv := NewServer(ctrl)
	var delivered atomic.Int64
	receiver := newTestServer(t, NewNotificationReceiver(func(*event.Notification) { delivered.Add(1) }))
	defer receiver.Close()
	callback, err := url.Parse(receiver.URL) // once, as a subscription does
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC)
	n := &event.Notification{
		ID: "EVT-000000000001", SourceID: "lab-000001", Class: schema.ClassBloodTest,
		PersonID: "PRS-0042", Summary: "blood test results available", Producer: "hospital",
		OccurredAt: at, PublishedAt: at.Add(time.Second), Trace: "feedbeefcafe0001",
	}
	for _, tc := range []struct {
		codec  event.Codec
		budget float64
	}{
		{event.Binary, 38},
		{event.XML, 39},
	} {
		t.Run(tc.codec.Name(), func(t *testing.T) {
			deliver := func() { srv.deliver(context.Background(), callback, "family-doctor", tc.codec, n) }
			deliver() // a warm keep-alive connection, as under load
			from := delivered.Load()
			got := math.Inf(1)
			for round := 0; round < rounds; round++ {
				got = min(got, testing.AllocsPerRun(runs, deliver))
			}
			if want := from + rounds*(runs+1); delivered.Load() != want {
				t.Fatalf("receiver got %d deliveries, want %d", delivered.Load()-from, want-from)
			}
			t.Logf("%s: %.0f allocs per delivery (budget %.0f)", tc.codec.Name(), got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s delivery allocates %.0f, budget %.0f", tc.codec.Name(), got, tc.budget)
			}
		})
	}
}

// TestServeAllocBudget gates the garbage of serving one request: a
// binary-codec publish with a trace, written by hand onto a loopback
// keep-alive connection and its answer read into a fixed buffer, so
// that only the serving side allocates: HTTPServer, the route's
// middleware and handler, and the controller's publish. Lowest of five
// rounds of testing.AllocsPerRun, budget = measured + 5 %. Measured 69
// under net/http's server and 59 under HTTPServer, which reads the
// request with the same http.ReadRequest but starts no background
// reader per request and keeps no per-request response machinery. Then
// 54, once the service derives the one context a request runs under
// from the request's, attaches the trace in one allocation, labels the
// request with a status its writer reports and reads the body into one
// buffer of its Content-Length. (52 had HTTPServer derive no context
// for the service and interned span names per route; each saved one
// allocation and was left out for the second request path and the
// table it needed.)
func TestServeAllocBudget(t *testing.T) {
	const rounds, runs = 5, 200
	ctrl, err := core.New(core.Config{MasterKey: bytes.Repeat([]byte{4}, crypto.KeySize), DefaultConsent: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.RegisterProducer("hospital", "H"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, NewServer(ctrl))
	defer srv.Close()

	// One request per publish, each with its own source id.
	at := time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC)
	reqs := make([][]byte, 1+rounds*(runs+1))
	for i := range reqs {
		body, err := event.Binary.EncodeNotification(&event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("lab-%06d", i)), Class: schema.ClassBloodTest,
			PersonID: "PRS-0042", Summary: "blood test results available", Producer: "hospital",
			OccurredAt: at, Trace: "feedbeefcafe0001",
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = append([]byte("POST /ws/publish HTTP/1.1\r\nHost: controller\r\n"+
			"Content-Type: "+event.ContentTypeBinary+"\r\nX-Trace-Id: feedbeefcafe0001\r\n"+
			"Content-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"), body...)
	}
	nc, err := net.Dial("tcp", srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	buf := make([]byte, 4096)
	next := 0
	publish := func() {
		if _, err := nc.Write(reqs[next]); err != nil {
			t.Fatal(err)
		}
		next++
		// Read until the head and the Content-Length bytes after it
		// are in.
		n := 0
		for {
			k, err := nc.Read(buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			n += k
			end := bytes.Index(buf[:n], []byte("\r\n\r\n"))
			if end < 0 {
				continue
			}
			if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 ")) {
				t.Fatalf("answer %q", buf[:n])
			}
			i := bytes.Index(buf[:end], []byte("Content-Length: "))
			if i < 0 {
				t.Fatalf("answer without Content-Length: %q", buf[:n])
			}
			clen := 0
			for _, c := range buf[i+len("Content-Length: ") : end] {
				if c < '0' || c > '9' {
					break
				}
				clen = 10*clen + int(c-'0')
			}
			if n >= end+4+clen {
				return
			}
		}
	}
	publish() // a warm connection, as under load
	got := math.Inf(1)
	for round := 0; round < rounds; round++ {
		got = min(got, testing.AllocsPerRun(runs, publish))
	}
	const budget = 54
	t.Logf("served publish: %.0f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("serving a publish allocates %.0f, budget %d", got, budget)
	}
}

// fixedPeer is an HTTP/1.1 peer that answers every request with the
// same bytes and allocates nothing per request: it reads each request
// into one fixed buffer, framed by its head and Content-Length, so an
// allocation count taken around a call counts only the calling side.
func fixedPeer(t *testing.T, answer string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop); ln.Close(); <-done })
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go func() { <-stop; nc.Close() }()
		reply := []byte(answer)
		buf := make([]byte, 16<<10)
		n := 0
		for {
			end := bytes.Index(buf[:n], []byte("\r\n\r\n"))
			if end < 0 {
				k, err := nc.Read(buf[n:])
				if err != nil {
					return
				}
				n += k
				continue
			}
			clen := 0
			if i := bytes.Index(buf[:end], []byte("\r\nContent-Length: ")); i >= 0 {
				for _, c := range buf[i+len("\r\nContent-Length: ") : end] {
					if c < '0' || c > '9' {
						break
					}
					clen = 10*clen + int(c-'0')
				}
			}
			for n < end+4+clen {
				k, err := nc.Read(buf[n:])
				if err != nil {
					return
				}
				n += k
			}
			if _, err := nc.Write(reply); err != nil {
				return
			}
			n = copy(buf, buf[end+4+clen:n])
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestCallAllocBudget gates the calling side of an outgoing call on its
// own: one callback delivery (the encode and the POST) and one binary
// Client.Publish, each on a warm connection to a fixedPeer, so the peer
// adds nothing. Lowest of five rounds of testing.AllocsPerRun, budget =
// measured + 5 %, for calls that carry a trace. Measured 31 and 45
// building each attempt with http.NewRequestWithContext and Header.Set
// under a context.WithTimeout, with the round tripper's
// context.AfterFunc and http.ReadResponse; 9 and 13 with the request
// built as one literal over a URL parsed once, shared header values,
// the attempt's deadline on the connection and the answer's head read
// by readAnswer. What is left is the encoded body, the request, its
// header map and traceparent value, the answer, its header map and
// head string; the publish adds its trace context and the ack's
// decode.
func TestCallAllocBudget(t *testing.T) {
	const rounds, runs = 5, 200
	ctrl, err := core.New(core.Config{MasterKey: bytes.Repeat([]byte{4}, crypto.KeySize)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	srv := NewServer(ctrl)
	at := time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC)
	n := &event.Notification{
		ID: "EVT-000000000001", SourceID: "lab-000001", Class: schema.ClassBloodTest,
		PersonID: "PRS-0042", Summary: "blood test results available", Producer: "hospital",
		OccurredAt: at, PublishedAt: at.Add(time.Second), Trace: "feedbeefcafe0001",
	}
	const date = "Date: Sun, 30 May 2010 09:00:00 GMT\r\n"
	// The answers of a NotificationReceiver and of a controller, both
	// served by HTTPServer.
	callback, err := url.Parse(fixedPeer(t, "HTTP/1.1 204 No Content\r\n"+date+"\r\n") + "/cb")
	if err != nil {
		t.Fatal(err)
	}
	ack := encodeEnvelope(event.Binary, &publishResponse{EventID: "EVT-000000000001"})
	client := NewClient(fixedPeer(t, "HTTP/1.1 200 OK\r\nContent-Type: "+event.ContentTypeBinary+
		"\r\nContent-Length: "+strconv.Itoa(len(ack))+"\r\nX-Trace-Id: feedbeefcafe0001\r\n"+date+"\r\n"+string(ack)),
		nil, WithCodec(event.Binary))
	before := srv.deliveriesFailed.Value("connect") + srv.deliveriesFailed.Value("status")
	for _, tc := range []struct {
		name   string
		call   func()
		budget float64
	}{
		{"callback", func() { srv.deliver(context.Background(), callback, "family-doctor", event.Binary, n) }, 10},
		{"publish", func() {
			if id, err := client.Publish(context.Background(), n); err != nil || id != "EVT-000000000001" {
				t.Fatalf("publish: %q, %v", id, err)
			}
		}, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.call() // a warm keep-alive connection, as under load
			got := math.Inf(1)
			for round := 0; round < rounds; round++ {
				got = min(got, testing.AllocsPerRun(runs, tc.call))
			}
			t.Logf("%s: %.0f allocs per call (budget %.0f)", tc.name, got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s allocates %.0f per call, budget %.0f", tc.name, got, tc.budget)
			}
		})
	}
	if after := srv.deliveriesFailed.Value("connect") + srv.deliveriesFailed.Value("status"); after != before {
		t.Fatalf("%d callback deliveries failed", after-before)
	}
}

// TestDetailAllocBudget gates the garbage of one permitted detail
// request at the controller: RequestDetailsContext through the consent
// check, the decision, one RemoteGateway fetch from a fixedPeer that
// answers the authorized detail (so the peer adds nothing) and the
// audit append. Lowest of five rounds of testing.AllocsPerRun, budget =
// measured + 5 %, for a request that carries a trace. Measured 53
// with the enforcer's and the remote gateway's fetch coalescing in
// front of the round trip (per layer a flight record, its channel and
// the closure it runs; the remote gateway's sorted field key); 45 with
// one fetch per request.
func TestDetailAllocBudget(t *testing.T) {
	const rounds, runs = 5, 200
	ctrl, err := core.New(core.Config{MasterKey: bytes.Repeat([]byte{4}, crypto.KeySize), DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.RegisterProducer("hospital", "H"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("family-doctor", "FD"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	}); err != nil {
		t.Fatal(err)
	}
	gid, err := ctrl.Publish(&event.Notification{
		SourceID: "lab-000001", Class: schema.ClassBloodTest, PersonID: "PRS-0042",
		Summary: "blood test results available", Producer: "hospital",
		OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := event.EncodeDetail(event.NewDetail(schema.ClassBloodTest, "lab-000001", "hospital").
		Set("patient-id", "PRS-0042").Set("hemoglobin", "14.2"))
	if err != nil {
		t.Fatal(err)
	}
	// The answer of a GatewayServer.
	peer := fixedPeer(t, "HTTP/1.1 200 OK\r\nContent-Type: "+event.ContentTypeXML+
		"\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\nX-Trace-Id: feedbeefcafe0001\r\n"+
		"Date: Sun, 30 May 2010 09:00:00 GMT\r\n\r\n"+string(body))
	if err := ctrl.AttachGateway("hospital", NewRemoteGateway(peer, nil)); err != nil {
		t.Fatal(err)
	}
	r := &event.DetailRequest{Requester: "family-doctor", Class: schema.ClassBloodTest, EventID: gid,
		Purpose: event.PurposeHealthcareTreatment, Trace: "feedbeefcafe0001"}
	request := func() {
		d, err := ctrl.RequestDetailsContext(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := d.Get("hemoglobin"); v != "14.2" {
			t.Fatalf("detail %+v", d)
		}
	}
	request() // a warm keep-alive connection, as under load
	got := math.Inf(1)
	for round := 0; round < rounds; round++ {
		got = min(got, testing.AllocsPerRun(runs, request))
	}
	const budget = 47
	t.Logf("permitted detail request: %.0f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("a permitted detail request allocates %.0f, budget %d", got, budget)
	}
}
