package transport

import (
	"bytes"
	"context"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/overload"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The wire-compat tables pin what the web-service binding puts on the
// wire — every outgoing request shape of the client side, and the
// answers both servers give before a handler runs (shed, draining, bad
// body, exempt scrapes) — so a refactor of the call path or the server
// scaffold cannot change a header, a status or a body byte unnoticed.

const (
	wcTrace       = "feedbeefcafe0001"
	wcTraceparent = "00-0000000000000000feedbeefcafe0001-0000000000000000-01"
)

// sentRequest is one outgoing request as the peer saw it.
type sentRequest struct {
	method, path, contentType, accept, auth, trace, traceparent string
	body                                                        []byte
}

// requestRecorder answers every request with the canned reply for its
// path and keeps the last request it saw.
type requestRecorder struct {
	mu    sync.Mutex
	last  *sentRequest
	reply map[string]string
}

func (rr *requestRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	rr.mu.Lock()
	rr.last = &sentRequest{
		method: r.Method, path: r.URL.Path,
		contentType: r.Header.Get("Content-Type"), accept: r.Header.Get("Accept"),
		auth:  r.Header.Get("Authorization"),
		trace: r.Header.Get(telemetry.TraceHeader), traceparent: r.Header.Get(telemetry.TraceparentHeader),
		body: body,
	}
	rr.mu.Unlock()
	if reply, ok := rr.reply[r.URL.Path]; ok {
		io.WriteString(w, reply)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (rr *requestRecorder) take() *sentRequest {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	got := rr.last
	rr.last = nil
	return got
}

func wcNotification() *event.Notification {
	return &event.Notification{
		SourceID: "src-1", Class: schema.ClassBloodTest, PersonID: "PRS-1",
		Summary: "blood test", OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC),
		Producer: "hospital",
	}
}

func wcDetail() *event.Detail {
	return event.NewDetail(schema.ClassBloodTest, "src-1", "hospital").
		Set("patient-id", "PRS-1").
		Set("exam-date", "2010-05-30").
		Set("hemoglobin", "14.2")
}

func mustBytes(t *testing.T) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

func checkSent(t *testing.T, got *sentRequest, want sentRequest) {
	t.Helper()
	if got == nil {
		t.Fatal("no request reached the peer")
	}
	check := func(what, g, w string) {
		t.Helper()
		if g != w {
			t.Errorf("%s = %q, want %q", what, g, w)
		}
	}
	check("method", got.method, want.method)
	check("path", got.path, want.path)
	check("Content-Type", got.contentType, want.contentType)
	check("Accept", got.accept, want.accept)
	check("Authorization", got.auth, want.auth)
	check("X-Trace-Id", got.trace, want.trace)
	check("traceparent", got.traceparent, want.traceparent)
	if !bytes.Equal(got.body, want.body) {
		t.Errorf("body = %q, want %q", got.body, want.body)
	}
}

func TestWireCompatClientRequests(t *testing.T) {
	rr := &requestRecorder{reply: map[string]string{
		"/ws/publish":   `<publishResponse><eventId>evt-1</eventId></publishResponse>`,
		"/ws/subscribe": `<subscribeResponse><id>sub-1</id></subscribeResponse>`,
		"/ws/details":   string(mustBytes(t)(event.EncodeDetail(wcDetail()))),
		"/ws/inquire":   `<inquiryResponse></inquiryResponse>`,
	}}
	peer := httptest.NewServer(rr)
	defer peer.Close()
	ctx := telemetry.WithTrace(context.Background(), wcTrace)
	must := mustBytes(t)
	detailReq := &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: "evt-1", Purpose: event.PurposeHealthcareTreatment,
	}
	const subscribeXML = `<subscribeRequest><actor>family-doctor</actor><class>hospital.blood-test</class><callback>http://cb.example/n</callback></subscribeRequest>`
	const detailsXML = `<DetailRequest><requester>family-doctor</requester><class>hospital.blood-test</class><eventId>evt-1</eventId><purpose>healthcare-treatment</purpose><at>0001-01-01T00:00:00Z</at></DetailRequest>`
	const inquiryXML = `<inquiryRequest><actor>family-doctor</actor><personId>PRS-1</personId><class>hospital.blood-test</class><from>2010-05-01T00:00:00Z</from><limit>5</limit></inquiryRequest>`

	for _, codec := range []event.Codec{event.XML, event.Binary} {
		for _, token := range []string{"", "tok-123"} {
			client := NewClient(peer.URL, nil, WithCodec(codec))
			auth := ""
			if token != "" {
				client = client.WithToken(token)
				auth = "Bearer " + token
			}
			subscribeBody := []byte(subscribeXML)
			if codec == event.Binary {
				subscribeBody = (&subscribeRequest{
					Actor: "family-doctor", Class: schema.ClassBloodTest,
					Callback: "http://cb.example/n", Codec: "binary"}).appendFrame(nil)
			}
			detailsBody := []byte(detailsXML)
			if codec == event.Binary {
				detailsBody = must(codec.EncodeDetailRequest(detailReq))
			}
			cases := []struct {
				name string
				call func() error
				want sentRequest
			}{
				{"publish", func() error {
					_, err := client.Publish(ctx, wcNotification())
					return err
				}, sentRequest{path: "/ws/publish", contentType: codec.ContentType(), accept: codec.ContentType(),
					body: must(codec.EncodeNotification(wcNotification()))}},
				{"subscribe", func() error {
					_, err := client.Subscribe(ctx, "family-doctor", schema.ClassBloodTest, "http://cb.example/n")
					return err
				}, sentRequest{path: "/ws/subscribe", contentType: codec.ContentType(), accept: codec.ContentType(),
					body: subscribeBody}},
				{"details", func() error {
					_, err := client.RequestDetails(ctx, detailReq)
					return err
				}, sentRequest{path: "/ws/details", contentType: codec.ContentType(), accept: codec.ContentType(),
					body: detailsBody}},
				// Inquiries stay XML whatever codec the client negotiated.
				{"inquire", func() error {
					_, err := client.InquireIndex(ctx, "family-doctor", index.Inquiry{
						PersonID: "PRS-1", Class: schema.ClassBloodTest,
						From: time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC), Limit: 5})
					return err
				}, sentRequest{path: "/ws/inquire", contentType: "application/xml", accept: "application/xml",
					body: []byte(inquiryXML)}},
			}
			for _, tc := range cases {
				t.Run(tc.name+"/"+codec.Name()+"/token="+token, func(t *testing.T) {
					if err := tc.call(); err != nil {
						t.Fatal(err)
					}
					tc.want.method, tc.want.auth = http.MethodPost, auth
					tc.want.trace, tc.want.traceparent = wcTrace, wcTraceparent
					checkSent(t, rr.take(), tc.want)
				})
			}
		}
	}

	t.Run("publish adopts the notification's trace", func(t *testing.T) {
		n := wcNotification()
		n.Trace = wcTrace
		if _, err := NewClient(peer.URL, nil).Publish(context.Background(), n); err != nil {
			t.Fatal(err)
		}
		checkSent(t, rr.take(), sentRequest{method: http.MethodPost, path: "/ws/publish",
			contentType: "application/xml", accept: "application/xml",
			trace: wcTrace, traceparent: wcTraceparent,
			body: must(event.XML.EncodeNotification(n))})
	})
	t.Run("details quotes a trace and a logical time", func(t *testing.T) {
		req := *detailReq
		req.Trace, req.At = wcTrace, time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC)
		if _, err := NewClient(peer.URL, nil).RequestDetails(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
		checkSent(t, rr.take(), sentRequest{method: http.MethodPost, path: "/ws/details",
			contentType: "application/xml", accept: "application/xml",
			trace: wcTrace, traceparent: wcTraceparent,
			body: []byte(`<DetailRequest trace="feedbeefcafe0001"><requester>family-doctor</requester><class>hospital.blood-test</class><eventId>evt-1</eventId><purpose>healthcare-treatment</purpose><at>2010-05-30T09:00:00Z</at></DetailRequest>`)})
	})
	t.Run("no trace no trace headers", func(t *testing.T) {
		if _, err := NewClient(peer.URL, nil).Publish(context.Background(), wcNotification()); err != nil {
			t.Fatal(err)
		}
		checkSent(t, rr.take(), sentRequest{method: http.MethodPost, path: "/ws/publish",
			contentType: "application/xml", accept: "application/xml",
			body: must(event.XML.EncodeNotification(wcNotification()))})
	})
}

func TestWireCompatRemoteGatewayRequests(t *testing.T) {
	rr := &requestRecorder{reply: map[string]string{
		"/gw/get-response": string(mustBytes(t)(event.EncodeDetail(wcDetail()))),
	}}
	peer := httptest.NewServer(rr)
	defer peer.Close()
	ctx := telemetry.WithTrace(context.Background(), wcTrace)
	const getResponseXML = `<getResponseRequest><sourceId>src-1</sourceId><fields><field>patient-id</field><field>hemoglobin</field></fields></getResponseRequest>`
	fields := []event.FieldName{"patient-id", "hemoglobin"}

	for _, codec := range []event.Codec{event.XML, event.Binary} {
		for _, token := range []string{"", "ctrl-tok"} {
			rg := NewRemoteGateway(peer.URL, nil, WithCodec(codec))
			auth := ""
			if token != "" {
				rg = rg.WithToken(token)
				auth = "Bearer " + token
			}
			name := codec.Name() + "/token=" + token
			t.Run("get-response/"+name, func(t *testing.T) {
				if _, err := rg.GetResponseContext(ctx, "", "src-1", fields); err != nil {
					t.Fatal(err)
				}
				checkSent(t, rr.take(), sentRequest{method: http.MethodPost, path: "/gw/get-response",
					contentType: "application/xml", accept: codec.ContentType(), auth: auth,
					trace: wcTrace, traceparent: wcTraceparent, body: []byte(getResponseXML)})
			})
			t.Run("persist/"+name, func(t *testing.T) {
				if err := rg.Persist(ctx, wcDetail()); err != nil {
					t.Fatal(err)
				}
				checkSent(t, rr.take(), sentRequest{method: http.MethodPost, path: "/gw/persist",
					contentType: "application/xml", accept: codec.ContentType(), auth: auth,
					trace: wcTrace, traceparent: wcTraceparent,
					body: mustBytes(t)(event.EncodeDetail(wcDetail()))})
			})
		}
	}
	t.Run("explicit trace wins over a bare context", func(t *testing.T) {
		rg := NewRemoteGateway(peer.URL, nil)
		if _, err := rg.GetResponseContext(context.Background(), wcTrace, "src-1", fields); err != nil {
			t.Fatal(err)
		}
		checkSent(t, rr.take(), sentRequest{method: http.MethodPost, path: "/gw/get-response",
			contentType: "application/xml", accept: "application/xml",
			trace: wcTrace, traceparent: wcTraceparent, body: []byte(getResponseXML)})
	})
	t.Run("no trace no trace headers", func(t *testing.T) {
		if err := NewRemoteGateway(peer.URL, nil).Persist(context.Background(), wcDetail()); err != nil {
			t.Fatal(err)
		}
		checkSent(t, rr.take(), sentRequest{method: http.MethodPost, path: "/gw/persist",
			contentType: "application/xml", accept: "application/xml",
			body: mustBytes(t)(event.EncodeDetail(wcDetail()))})
	})
}

// The controller's callback POST: the notification in the subscription's
// codec, the flow's trace in both headers, no Accept and no bearer.
func TestWireCompatCallbackPost(t *testing.T) {
	for _, codec := range []event.Codec{event.XML, event.Binary} {
		t.Run(codec.Name(), func(t *testing.T) {
			r := newRig(t)
			r.doctorPolicy(t)
			rr := &requestRecorder{}
			subscriber := httptest.NewServer(rr)
			defer subscriber.Close()
			consumer := NewClient(r.ctrlServer.URL, nil, WithCodec(codec))
			if _, err := consumer.Subscribe(context.Background(), "family-doctor", schema.ClassBloodTest, subscriber.URL+"/cb/7"); err != nil {
				t.Fatal(err)
			}
			gid, err := r.client.Publish(telemetry.WithTrace(context.Background(), wcTrace), wcNotification())
			if err != nil {
				t.Fatal(err)
			}
			var got *sentRequest
			for deadline := time.Now().Add(5 * time.Second); got == nil && time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
				got = rr.take()
			}
			if got == nil {
				t.Fatal("callback never delivered")
			}
			if !regexp.MustCompile(`^00-0{16}` + wcTrace + `-[0-9a-f]{16}-01$`).MatchString(got.traceparent) {
				t.Errorf("traceparent = %q", got.traceparent)
			}
			// The body is the stored notification (source id withheld,
			// publishedAt stamped) in the subscription's codec, unaltered
			// by the transport: it re-encodes to the same bytes.
			n, err := codec.DecodeNotification(got.body)
			if err != nil {
				t.Fatalf("callback body does not decode as %s: %v", codec.Name(), err)
			}
			if n.ID != gid || n.Trace != wcTrace || n.PersonID != "PRS-1" || n.SourceID != "" {
				t.Errorf("callback notification = %+v", n)
			}
			checkSent(t, got, sentRequest{method: http.MethodPost, path: "/cb/7",
				contentType: codec.ContentType(), trace: wcTrace, traceparent: got.traceparent,
				body: mustBytes(t)(codec.EncodeNotification(n))})
		})
	}
}

// wcServers builds one controller server and one gateway server behind
// the same gate (nil: no admission control), with a POST route each.
func wcServers(t *testing.T, gate *overload.Gate) map[string]struct {
	h    http.Handler
	post string
} {
	t.Helper()
	ctrl, err := core.New(core.Config{DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gws := testGatewayServer(gw)
	gws.SetAdmission(gate)
	return map[string]struct {
		h    http.Handler
		post string
	}{
		"controller": {NewServer(ctrl).SetAdmission(gate), "/ws/publish"},
		"gateway":    {gws, "/gw/get-response"},
	}
}

func wcPost(h http.Handler, path, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestWireCompatServerRefusals(t *testing.T) {
	const xmlType = "application/xml; charset=utf-8"
	checkFault := func(t *testing.T, rec *httptest.ResponseRecorder, status int, contentType, retryAfter, code string) {
		t.Helper()
		if rec.Code != status {
			t.Errorf("status = %d, want %d (%s)", rec.Code, status, rec.Body)
		}
		if got := rec.Header().Get("Content-Type"); got != contentType {
			t.Errorf("Content-Type = %q, want %q", got, contentType)
		}
		if got := rec.Header().Get("Retry-After"); got != retryAfter {
			t.Errorf("Retry-After = %q, want %q", got, retryAfter)
		}
		var f Fault
		var err error
		if contentType == event.ContentTypeBinary {
			err = f.readFrame(rec.Body.Bytes())
		} else {
			err = xml.Unmarshal(rec.Body.Bytes(), &f)
		}
		if err != nil || f.Code != code {
			t.Errorf("fault = %+v (%v), want code %q", f, err, code)
		}
	}

	t.Run("shed", func(t *testing.T) {
		// One token per actor and a frozen clock: the second request of the
		// same caller is over its rate.
		now := time.Unix(1_000_000, 0)
		gate := overload.NewGate(overload.Config{ActorRPS: 0.001,
			Now: func() time.Time { return now }})
		for name, srv := range wcServers(t, gate) {
			t.Run(name, func(t *testing.T) {
				wcPost(srv.h, srv.post, "", "<x/>")
				rec := wcPost(srv.h, srv.post, "", "<x/>")
				checkFault(t, rec, http.StatusTooManyRequests, xmlType, "1", CodeOverloaded)
				if !strings.Contains(rec.Body.String(), "transport: overloaded (rate), retry later") {
					t.Errorf("shed message = %s", rec.Body)
				}
			})
		}
	})
	t.Run("draining", func(t *testing.T) {
		gate := overload.NewGate(overload.Config{})
		gate.BeginDrain()
		for name, srv := range wcServers(t, gate) {
			t.Run(name, func(t *testing.T) {
				rec := wcPost(srv.h, srv.post, "", "<x/>")
				checkFault(t, rec, http.StatusTooManyRequests, xmlType, "1", CodeOverloaded)
				if !strings.Contains(rec.Body.String(), "transport: overloaded (draining), retry later") {
					t.Errorf("draining message = %s", rec.Body)
				}
				// Operators still scrape and probe a draining node.
				for _, path := range []string{"/metrics", "/healthz"} {
					probe := httptest.NewRecorder()
					srv.h.ServeHTTP(probe, httptest.NewRequest(http.MethodGet, path, nil))
					if probe.Code != http.StatusOK {
						t.Errorf("GET %s under a closed gate = %d, want 200", path, probe.Code)
					}
				}
			})
		}
	})
	t.Run("bad body", func(t *testing.T) {
		for name, srv := range wcServers(t, nil) {
			t.Run(name, func(t *testing.T) {
				checkFault(t, wcPost(srv.h, srv.post, "", "<unterminated"),
					http.StatusBadRequest, xmlType, "", CodeBadRequest)
			})
		}
		// The controller's hot routes answer a binary peer in binary.
		srv := wcServers(t, nil)["controller"]
		for _, path := range []string{"/ws/publish", "/ws/details", "/ws/subscribe"} {
			t.Run("controller binary "+path, func(t *testing.T) {
				checkFault(t, wcPost(srv.h, path, event.ContentTypeBinary, "not a frame"),
					http.StatusBadRequest, event.ContentTypeBinary, "", CodeBadRequest)
			})
		}
	})
}
