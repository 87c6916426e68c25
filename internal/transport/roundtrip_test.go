package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/schema"
)

// connServer is an httptest server that counts the connections it
// accepted.
type connServer struct {
	*httptest.Server
	conns atomic.Int64
}

func newConnServer(t *testing.T, h http.HandlerFunc) *connServer {
	t.Helper()
	s := &connServer{Server: httptest.NewUnstartedServer(h)}
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.conns.Add(1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

func (s *connServer) addr() string { return strings.TrimPrefix(s.URL, "http://") }

// idleConns counts the pool's idle connections to addr.
func (t *roundTripper) idleConns(addr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.idle[addr])
}

func newTestRoundTripper() *roundTripper { return NewTunedTransport().(*roundTripper) }

// post sends one POST through rt and returns the answer's body.
func post(t *testing.T, ctx context.Context, rt http.RoundTripper, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func TestRoundTripReusesConnection(t *testing.T) {
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(w, r.Body)
	})
	rt := newTestRoundTripper()
	for i := 0; i < 3; i++ {
		if _, got := post(t, context.Background(), rt, srv.URL, "ping"); string(got) != "ping" {
			t.Fatalf("echo %q", got)
		}
	}
	if n := srv.conns.Load(); n != 1 {
		t.Fatalf("%d connections for 3 sequential calls, want 1", n)
	}
	if n := rt.idleConns(srv.addr()); n != 1 {
		t.Fatalf("%d idle connections, want 1", n)
	}
}

// A keep-alive connection the server closed while it sat in the pool
// fails before any answer arrives: the POST goes again, once, on a fresh
// connection, and the handler runs once for it.
func TestRoundTripResendsOnStaleIdleConnection(t *testing.T) {
	var calls atomic.Int64
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(w, r.Body)
	})
	rt := newTestRoundTripper()
	post(t, context.Background(), rt, srv.URL, "first")
	srv.CloseClientConnections()
	if _, got := post(t, context.Background(), rt, srv.URL, "second"); string(got) != "second" {
		t.Fatalf("resent body arrived as %q", got)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times for 2 calls", n)
	}
	if n := srv.conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2 (the stale one and its replacement)", n)
	}
}

// A body that cannot be rewound is not resent: the failure is the
// caller's to handle.
func TestRoundTripDoesNotResendUnrewindableBody(t *testing.T) {
	var calls atomic.Int64
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) { calls.Add(1) })
	rt := newTestRoundTripper()
	post(t, context.Background(), rt, srv.URL, "first")
	srv.CloseClientConnections()
	req, err := http.NewRequest(http.MethodPost, srv.URL, io.NopCloser(strings.NewReader("second")))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len("second"))
	if resp, err := rt.RoundTrip(req); err == nil {
		resp.Body.Close()
		t.Fatal("an unrewindable body was sent twice")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
}

func TestRoundTripDiscardsHalfReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 64<<10)
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) { w.Write(payload) })
	rt := newTestRoundTripper()
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := resp.Body.Read(make([]byte, 1)); !errors.Is(err, http.ErrBodyReadAfterClose) {
		t.Fatalf("read after close: %v", err)
	}
	if n := rt.idleConns(srv.addr()); n != 0 {
		t.Fatalf("a half-read connection went back to the pool (%d idle)", n)
	}
	post(t, context.Background(), rt, srv.URL, "")
	if n := srv.conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: the half-read one is not reused", n)
	}
}

func TestRoundTripConnectionCloseIsNotPooled(t *testing.T) {
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		w.Write([]byte("bye"))
	})
	rt := newTestRoundTripper()
	if _, got := post(t, context.Background(), rt, srv.URL, ""); string(got) != "bye" {
		t.Fatalf("body %q", got)
	}
	if n := rt.idleConns(srv.addr()); n != 0 {
		t.Fatalf("%d idle connections after Connection: close", n)
	}
}

// rawServer answers every request on a connection with the canned
// bytes, which a test writes by hand, and keeps the connection open.
func rawServer(t *testing.T, answer string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	serve := func(c net.Conn) {
		defer wg.Done()
		br := bufio.NewReader(c)
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			io.Copy(io.Discard, req.Body)
			if _, err := io.WriteString(c, answer); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go serve(c)
		}
	}()
	return ln.Addr().String()
}

func TestRoundTripHTTP10IsNotPooled(t *testing.T) {
	addr := rawServer(t, "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok")
	rt := newTestRoundTripper()
	if _, got := post(t, context.Background(), rt, "http://"+addr, ""); string(got) != "ok" {
		t.Fatalf("body %q", got)
	}
	if n := rt.idleConns(addr); n != 0 {
		t.Fatalf("%d idle connections after an HTTP/1.0 answer", n)
	}
}

func TestRoundTripSkipsContinue(t *testing.T) {
	addr := rawServer(t, "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	rt := newTestRoundTripper()
	for i := 0; i < 2; i++ { // the second call rides the pooled connection
		resp, got := post(t, context.Background(), rt, "http://"+addr, "body")
		if resp.StatusCode != http.StatusOK || string(got) != "ok" {
			t.Fatalf("answer %d %q, want 200 \"ok\"", resp.StatusCode, got)
		}
	}
	if n := rt.idleConns(addr); n != 1 {
		t.Fatalf("%d idle connections, want 1", n)
	}
}

func TestRoundTripDecodesChunkedAnswer(t *testing.T) {
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) {
		for _, part := range []string{"chunk-one ", "chunk-two ", "chunk-three"} {
			w.Write([]byte(part))
			w.(http.Flusher).Flush()
		}
	})
	rt := newTestRoundTripper()
	resp, got := post(t, context.Background(), rt, srv.URL, "")
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("answer was not chunked: %v", resp.TransferEncoding)
	}
	if string(got) != "chunk-one chunk-two chunk-three" {
		t.Fatalf("body %q", got)
	}
	if n := rt.idleConns(srv.addr()); n != 1 {
		t.Fatalf("%d idle connections after a chunked answer read to EOF, want 1", n)
	}
}

// The context's deadline cuts an answer whose body stalls: the read
// fails with the context's error and the connection is closed.
func TestRoundTripDeadlineMidResponse(t *testing.T) {
	release := make(chan struct{})
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "10")
		w.Write([]byte("half"))
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	defer close(release)
	rt := newTestRoundTripper()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled body read: %v, want the context's deadline", err)
	}
	if n := rt.idleConns(srv.addr()); n != 0 {
		t.Fatalf("%d idle connections after a cut answer", n)
	}
}

// The deadline also cuts a wait for the head of the answer.
func TestRoundTripDeadlineBeforeResponse(t *testing.T) {
	release := make(chan struct{})
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	defer close(release)
	rt := newTestRoundTripper()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader("x"))
	if resp, err := rt.RoundTrip(req); !errors.Is(err, context.DeadlineExceeded) {
		if err == nil {
			resp.Body.Close()
		}
		t.Fatalf("stalled answer: %v, want the context's deadline", err)
	}
	if n := rt.idleConns(srv.addr()); n != 0 {
		t.Fatalf("%d idle connections after a cut exchange", n)
	}
}

// However many calls run at once, at most maxIdleConnsPerHost
// connections stay parked once they finish.
func TestRoundTripIdlePoolIsBounded(t *testing.T) {
	const calls = maxIdleConnsPerHost + 16
	var arrived sync.WaitGroup
	arrived.Add(calls)
	all := make(chan struct{})
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		<-all
	})
	go func() { arrived.Wait(); close(all) }()
	rt := newTestRoundTripper()
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
			resp, err := rt.RoundTrip(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if n := srv.conns.Load(); n != calls {
		t.Fatalf("%d connections for %d concurrent calls", n, calls)
	}
	if n := rt.idleConns(srv.addr()); n != maxIdleConnsPerHost {
		t.Fatalf("%d idle connections, want %d", n, maxIdleConnsPerHost)
	}
}

// A connection unused for idleConnTimeout is closed by the sweep, and
// a pool left empty stops sweeping.
func TestRoundTripSweepClosesExpiredConnections(t *testing.T) {
	srv := newConnServer(t, func(w http.ResponseWriter, r *http.Request) {})
	rt := newTestRoundTripper()
	post(t, context.Background(), rt, srv.URL, "")
	post(t, context.Background(), rt, srv.URL, "")
	rt.mu.Lock()
	for _, pc := range rt.idle[srv.addr()] {
		pc.idleAt = pc.idleAt.Add(-idleConnTimeout)
	}
	rt.mu.Unlock()
	rt.sweep()
	if n := rt.idleConns(srv.addr()); n != 0 {
		t.Fatalf("%d idle connections survived the sweep", n)
	}
	rt.mu.Lock()
	armed := rt.sweeper != nil
	rt.mu.Unlock()
	if armed {
		t.Fatal("the sweep re-armed over an empty pool")
	}
}

// stallPeer accepts one connection, reads one request's head, writes
// answer (which may be a part of one) and then sends nothing more; the
// returned channel is closed once the caller closes the connection.
func stallPeer(t *testing.T, answer string) (addr string, closed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		io.WriteString(nc, answer)
		io.Copy(io.Discard, br) // until the caller closes
		close(done)
	}()
	return ln.Addr().String(), done
}

// A callback to a subscriber that never answers fails once the
// per-attempt timeout passes, counted as "connect", and its connection
// is closed rather than pooled.
func TestCallbackTimeoutDiscardsConnection(t *testing.T) {
	ctrl, err := core.New(core.Config{MasterKey: bytes.Repeat([]byte{4}, crypto.KeySize)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	srv := NewServer(ctrl)
	const timeout = 100 * time.Millisecond
	srv.callbacks.timeout = timeout
	addr, closed := stallPeer(t, "")
	u, _ := url.Parse("http://" + addr + "/cb")
	n := &event.Notification{ID: "EVT-000000000001", Class: schema.ClassBloodTest, Trace: "feedbeefcafe0001"}
	start := time.Now()
	srv.deliver(context.Background(), u, "family-doctor", event.Binary, n)
	if took := time.Since(start); took < timeout || took > 20*timeout {
		t.Errorf("delivery failed after %v, want about %v", took, timeout)
	}
	if got := srv.deliveriesFailed.Value("connect"); got != 1 {
		t.Errorf("connect failures counted %d, want 1", got)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the timed-out connection was left open")
	}
	if n := srv.callbacks.rt.(*roundTripper).idleConns(addr); n != 0 {
		t.Fatalf("%d idle connections after a timed-out call", n)
	}
}

// A caller's context cancelled while the answer's body is still
// arriving cuts the call with the context's error, well before the
// per-attempt timeout, and the connection is closed.
func TestCallCancelledMidRead(t *testing.T) {
	addr, closed := stallPeer(t, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n<publishResponse>")
	client := NewClient("http://"+addr, nil)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := client.Publish(ctx, &event.Notification{SourceID: "lab-1", Class: schema.ClassBloodTest,
		PersonID: "PRS-1", Summary: "blood test", Producer: "hospital", OccurredAt: time.Now()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("publish cut mid-read: %v, want the context's error", err)
	}
	if took := time.Since(start); took > DefaultHTTPTimeout/2 {
		t.Errorf("cancellation took %v", took)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the cut connection was left open")
	}
}
