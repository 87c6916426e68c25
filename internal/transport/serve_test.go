package transport

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testServer serves a handler through HTTPServer on a loopback port,
// with the parts of httptest.Server the tests use: a URL known before
// Start, Close, and CloseClientConnections to cut every connection
// (a process kill, seen from the network).
type testServer struct {
	URL string
	ln  *trackingListener
	srv *HTTPServer

	closeOnce sync.Once
	served    chan struct{} // closed when Serve returns
}

// trackingListener remembers the connections it accepted.
type trackingListener struct {
	net.Listener
	accepted atomic.Int64
	mu       sync.Mutex
	conns    []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) closeConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// newUnstartedTestServer binds a loopback port; Start serves it.
func newUnstartedTestServer(t testing.TB) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &testServer{URL: "http://" + ln.Addr().String(), ln: &trackingListener{Listener: ln}, served: make(chan struct{})}
}

// newTestServer serves h on a loopback port.
func newTestServer(t testing.TB, h http.Handler) *testServer {
	t.Helper()
	s := newUnstartedTestServer(t)
	s.Start(h)
	return s
}

func (s *testServer) Start(h http.Handler) {
	s.srv = NewHTTPServer(h)
	go func() {
		defer close(s.served)
		s.srv.Serve(s.ln)
	}()
}

func (s *testServer) addr() string { return strings.TrimPrefix(s.URL, "http://") }

// CloseClientConnections closes every connection the server accepted,
// in flight or idle.
func (s *testServer) CloseClientConnections() { s.ln.closeConns() }

// Close stops the server, cuts its connections and waits until its
// handlers have returned. It may be called more than once, from any
// goroutine.
func (s *testServer) Close() {
	s.closeOnce.Do(func() {
		s.ln.Close()
		if s.srv == nil {
			return
		}
		cut, cancel := context.WithCancel(context.Background())
		cancel()
		s.srv.Shutdown(cut) // stops accepting and closes the idle connections
		s.ln.closeConns()
		s.srv.Shutdown(context.Background())
		<-s.served
	})
}

// rawConn is a client connection the tests write bytes to and read
// answers from.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, s *testServer) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", s.addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *rawConn) send(s string) {
	c.t.Helper()
	if _, err := io.WriteString(c.nc, s); err != nil {
		c.t.Fatal(err)
	}
}

// answer reads one answer to a request with method, and its body.
func (c *rawConn) answer(method string) (*http.Response, string) {
	c.t.Helper()
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		c.t.Fatalf("read answer: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("read answer body: %v", err)
	}
	return resp, string(body)
}

// closed reports whether the server closed the connection: a read
// meets EOF (or a reset) with no byte of another answer.
func (c *rawConn) closed() bool {
	c.t.Helper()
	_, err := c.br.ReadByte()
	return err != nil
}

// echo answers with the request's path and body, and counts calls.
type echo struct{ calls atomic.Int64 }

func (e *echo) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.calls.Add(1)
	body, _ := io.ReadAll(r.Body)
	io.WriteString(w, r.URL.Path+":"+string(body))
}

func TestServeKeepsConnectionAlive(t *testing.T) {
	remotes := make(chan string, 3)
	s := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remotes <- r.RemoteAddr
		io.WriteString(w, "ok")
	}))
	defer s.Close()
	c := dialRaw(t, s)
	for i := 0; i < 3; i++ {
		c.send("GET /x HTTP/1.1\r\nHost: a\r\n\r\n")
		resp, body := c.answer("GET")
		if resp.StatusCode != 200 || body != "ok" || resp.Close {
			t.Fatalf("answer %d: %d %q close=%v", i, resp.StatusCode, body, resp.Close)
		}
		if resp.ContentLength != 2 || resp.Header.Get("Date") == "" {
			t.Fatalf("answer %d: Content-Length %d, Date %q", i, resp.ContentLength, resp.Header.Get("Date"))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
			t.Fatalf("sniffed Content-Type %q", ct)
		}
	}
	if n := s.ln.accepted.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
	for i := 0; i < 3; i++ {
		if got := <-remotes; got != c.nc.LocalAddr().String() {
			t.Fatalf("RemoteAddr %s, want %s", got, c.nc.LocalAddr())
		}
	}
}

func TestServeAnswersPipelinedRequestsInOrder(t *testing.T) {
	e := &echo{}
	s := newTestServer(t, e)
	defer s.Close()
	c := dialRaw(t, s)
	c.send("POST /1 HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\n\r\none" +
		"GET /2 HTTP/1.1\r\nHost: a\r\n\r\n" +
		"POST /3 HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nthree\r\n0\r\n\r\n")
	for _, want := range []string{"/1:one", "/2:", "/3:three"} {
		if _, body := c.answer("GET"); body != want {
			t.Fatalf("answer %q, want %q", body, want)
		}
	}
}

func TestServeRejectsBeforeHandler(t *testing.T) {
	e := &echo{}
	s := newTestServer(t, e)
	defer s.Close()
	for _, tc := range []struct {
		name, req string
		status    int
		text      string
	}{
		{"malformed request line", "GARBAGE\r\n\r\n", 400, "400 Bad Request"},
		{"header name not a token", "GET / HTTP/1.1\r\nHost: a\r\nBad Name: x\r\n\r\n", 400, "400 Bad Request: invalid header name"},
		{"control character in value", "GET / HTTP/1.1\r\nHost: a\r\nX-A: a\x01b\r\n\r\n", 400, "400 Bad Request"},
		{"HTTP/1.1 without Host", "GET / HTTP/1.1\r\nX-A: b\r\n\r\n", 400, "400 Bad Request: missing required Host header"},
		{"HTTP/2 request line", "GET / HTTP/2.0\r\nHost: a\r\n\r\n", 505, "505 HTTP Version Not Supported: unsupported protocol version"},
		{"unknown expectation", "POST / HTTP/1.1\r\nHost: a\r\nExpect: teapot\r\nContent-Length: 1\r\n\r\nx", 417, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, s)
			c.send(tc.req)
			resp, body := c.answer("GET")
			if resp.StatusCode != tc.status || body != tc.text || !resp.Close {
				t.Fatalf("%d %q close=%v, want %d %q and close", resp.StatusCode, body, resp.Close, tc.status, tc.text)
			}
			if !c.closed() {
				t.Fatal("connection left open")
			}
		})
	}
	if n := e.calls.Load(); n != 0 {
		t.Fatalf("handler ran %d times for refused requests", n)
	}
}

// A header block past http.DefaultMaxHeaderBytes plus 4 KiB is refused
// with 431 before the handler, while the client is still sending it.
func TestServeRefusesOversizedHeader(t *testing.T) {
	e := &echo{}
	s := newTestServer(t, e)
	defer s.Close()
	c := dialRaw(t, s)
	head := "GET / HTTP/1.1\r\nHost: a\r\nX-Big: " + strings.Repeat("b", maxHeaderBytes) + "\r\n\r\n"
	go io.WriteString(c.nc, head) // fails once the server closes
	resp, _ := c.answer("GET")
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge || !resp.Close {
		t.Fatalf("%d close=%v, want 431 and close", resp.StatusCode, resp.Close)
	}
	if e.calls.Load() != 0 {
		t.Fatal("handler ran")
	}

	// Just under the limit is served.
	c = dialRaw(t, s)
	c.send("GET / HTTP/1.1\r\nHost: a\r\nX-Big: " + strings.Repeat("b", http.DefaultMaxHeaderBytes) + "\r\n\r\n")
	if resp, _ := c.answer("GET"); resp.StatusCode != 200 {
		t.Fatalf("header under the limit: %d", resp.StatusCode)
	}
}

func TestServeSendsContinueBeforeReadingBody(t *testing.T) {
	s := newTestServer(t, &echo{})
	defer s.Close()
	c := dialRaw(t, s)
	c.send("POST /e HTTP/1.1\r\nHost: a\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\n")
	if resp, _ := c.answer("POST"); resp.StatusCode != http.StatusContinue {
		t.Fatalf("interim answer %d, want 100", resp.StatusCode)
	}
	c.send("body")
	if resp, body := c.answer("POST"); resp.StatusCode != 200 || body != "/e:body" {
		t.Fatalf("%d %q", resp.StatusCode, body)
	}
	// A handler that never reads the body sends no 100, and the
	// connection closes: the client may or may not send the body.
	s2 := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer s2.Close()
	c = dialRaw(t, s2)
	c.send("POST / HTTP/1.1\r\nHost: a\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\n")
	if resp, _ := c.answer("POST"); resp.StatusCode != 200 || !resp.Close {
		t.Fatalf("%d close=%v, want 200 and close", resp.StatusCode, resp.Close)
	}
}

// What a handler leaves of a body is discarded up to 256 KiB to keep
// the connection; a longer remainder closes it.
func TestServeDrainsOrClosesUnreadBody(t *testing.T) {
	s := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ignored")
	}))
	defer s.Close()
	for _, tc := range []struct {
		size   int
		closes bool
	}{
		{1 << 10, false},
		{maxPostHandlerRead, false},
		{maxPostHandlerRead + 4<<10, true},
	} {
		c := dialRaw(t, s)
		go io.WriteString(c.nc, "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: "+strconv.Itoa(tc.size)+
			"\r\n\r\n"+strings.Repeat("x", tc.size))
		resp, body := c.answer("POST")
		if body != "ignored" || resp.Close != tc.closes {
			t.Fatalf("%d-byte body: %q close=%v, want close=%v", tc.size, body, resp.Close, tc.closes)
		}
		if tc.closes {
			continue
		}
		c.send("GET / HTTP/1.1\r\nHost: a\r\n\r\n")
		if _, body := c.answer("GET"); body != "ignored" {
			t.Fatalf("after a drained %d-byte body: %q", tc.size, body)
		}
	}
}

func TestServeHEADCarriesNoBody(t *testing.T) {
	s := newTestServer(t, &echo{})
	defer s.Close()
	c := dialRaw(t, s)
	c.send("HEAD /h HTTP/1.1\r\nHost: a\r\n\r\nGET /g HTTP/1.1\r\nHost: a\r\n\r\n")
	resp, body := c.answer("HEAD")
	if resp.StatusCode != 200 || body != "" || resp.ContentLength != int64(len("/h:")) {
		t.Fatalf("HEAD: %d %q Content-Length %d", resp.StatusCode, body, resp.ContentLength)
	}
	if _, body := c.answer("GET"); body != "/g:" {
		t.Fatalf("answer after HEAD: %q", body)
	}
}

// An HTTP/1.1 request with Connection: close, and an HTTP/1.0 request
// without keep-alive, are the last on their connection; an HTTP/1.0
// keep-alive is answered as one.
func TestServeClosesWhenAsked(t *testing.T) {
	s := newTestServer(t, &echo{})
	defer s.Close()
	for _, tc := range []struct {
		name, req string
		close     bool
	}{
		{"HTTP/1.1 Connection: close", "GET / HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n", true},
		{"HTTP/1.0", "GET / HTTP/1.0\r\n\r\n", true},
		{"HTTP/1.0 keep-alive", "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, s)
			c.send(tc.req)
			resp, body := c.answer("GET")
			if body != "/:" {
				t.Fatalf("answer %q", body)
			}
			if tc.close {
				if strings.Contains(tc.req, "HTTP/1.1") && !resp.Close {
					t.Fatal("answer does not say Connection: close")
				}
				if !c.closed() {
					t.Fatal("connection left open")
				}
				return
			}
			if resp.Header.Get("Connection") != "keep-alive" {
				t.Fatalf("Connection %q, want keep-alive", resp.Header.Get("Connection"))
			}
			c.send(tc.req)
			if _, body := c.answer("GET"); body != "/:" {
				t.Fatalf("second answer %q", body)
			}
		})
	}
}

// A body past the write buffer goes chunked, unless the handler set
// its length.
func TestServeLargeBody(t *testing.T) {
	big := strings.Repeat("y", 3*serveBufferSize)
	s := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sized" {
			w.Header().Set("Content-Length", strconv.Itoa(len(big)))
		}
		for i := 0; i < 3; i++ {
			io.WriteString(w, big[i*serveBufferSize:(i+1)*serveBufferSize])
		}
	}))
	defer s.Close()
	c := dialRaw(t, s)
	c.send("GET /chunked HTTP/1.1\r\nHost: a\r\n\r\n")
	resp, body := c.answer("GET")
	if body != big || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("%d bytes, Transfer-Encoding %v", len(body), resp.TransferEncoding)
	}
	c.send("GET /sized HTTP/1.1\r\nHost: a\r\n\r\n")
	resp, body = c.answer("GET")
	if body != big || resp.ContentLength != int64(len(big)) || resp.TransferEncoding != nil {
		t.Fatalf("%d bytes, Content-Length %d, Transfer-Encoding %v", len(body), resp.ContentLength, resp.TransferEncoding)
	}
}

// A handler panic closes its connection without an answer; the server
// keeps serving.
func TestServeRecoversHandlerPanic(t *testing.T) {
	s := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/panic" {
			panic("handler bug")
		}
		io.WriteString(w, "fine")
	}))
	defer s.Close()
	c := dialRaw(t, s)
	c.send("GET /panic HTTP/1.1\r\nHost: a\r\n\r\n")
	if !c.closed() {
		t.Fatal("connection of a panicking handler left open")
	}
	c = dialRaw(t, s)
	c.send("GET / HTTP/1.1\r\nHost: a\r\n\r\n")
	if _, body := c.answer("GET"); body != "fine" {
		t.Fatalf("after a panic: %q", body)
	}
}

func TestServeContextEndsWhenHandlerReturns(t *testing.T) {
	ctxs := make(chan context.Context, 1)
	s := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.Context().Err(); err != nil {
			t.Errorf("context ended inside the handler: %v", err)
		}
		ctxs <- r.Context()
	}))
	defer s.Close()
	c := dialRaw(t, s)
	c.send("GET / HTTP/1.1\r\nHost: a\r\n\r\n")
	c.answer("GET")
	select {
	case <-(<-ctxs).Done():
	case <-time.After(10 * time.Second):
		t.Fatal("request context still live after the handler returned")
	}
}

// Shutdown closes idle connections at once, lets an in-flight request
// answer with Connection: close, refuses new connections, and returns
// when the last connection is gone.
func TestServeShutdown(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		io.WriteString(w, "done")
	}))
	defer s.Close()
	idle := dialRaw(t, s)
	idle.send("GET / HTTP/1.1\r\nHost: a\r\n\r\n")
	idle.answer("GET")
	busy := dialRaw(t, s)
	busy.send("GET /slow HTTP/1.1\r\nHost: a\r\n\r\n")
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- s.srv.Shutdown(context.Background()) }()
	if !idle.closed() {
		t.Fatal("idle connection left open by Shutdown")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if nc, err := net.Dial("tcp", s.addr()); err == nil {
		nc.Close()
		t.Fatal("new connection accepted during Shutdown")
	}
	close(release)
	resp, body := busy.answer("GET")
	if body != "done" || !resp.Close {
		t.Fatalf("in-flight answer %q close=%v, want done and close", body, resp.Close)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.srv.Serve(s.ln); !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
}

// Shutdown gives up when its context ends first.
func TestServeShutdownDeadline(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))
	defer s.Close()
	defer close(release)
	c := dialRaw(t, s)
	c.send("GET / HTTP/1.1\r\nHost: a\r\n\r\n")
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a request in flight: %v", err)
	}
}

// The round tripper refuses a header value that would end its line
// early, instead of sending it with the CR or LF turned into spaces.
func TestRoundTripRefusesHeaderInjection(t *testing.T) {
	e := &echo{}
	s := newTestServer(t, e)
	defer s.Close()
	rt := newTestRoundTripper()
	for _, h := range [][2]string{{"X-Trace-Id", "abc\r\nX-Evil: 1"}, {"X-A", "a\nb"}, {"Bad Name", "v"}} {
		req, err := http.NewRequest(http.MethodPost, s.URL, strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header[h[0]] = []string{h[1]}
		if resp, err := rt.RoundTrip(req); err == nil {
			resp.Body.Close()
			t.Fatalf("header %q: %q sent", h[0], h[1])
		}
	}
	if n := e.calls.Load(); n != 0 {
		t.Fatalf("%d requests reached the server", n)
	}
}

// The round tripper refuses a control character in the parts of the
// request line and Host it writes as they are, as net/http's Transport
// does: the query, an opaque URL and the host.
func TestRoundTripRefusesURLInjection(t *testing.T) {
	e := &echo{}
	s := newTestServer(t, e)
	defer s.Close()
	rt := newTestRoundTripper()
	for _, edit := range []func(*http.Request){
		func(r *http.Request) { r.URL.RawQuery = "a HTTP/1.1\r\nHost: h\r\n\r\nPOST /ws/promote?x=" },
		func(r *http.Request) { r.URL.RawQuery = "a\nb" },
		func(r *http.Request) { r.URL.Opaque = "/x\r\nX: y" },
		func(r *http.Request) { r.Host = "h\r\nX: y" },
	} {
		req, err := http.NewRequest(http.MethodGet, s.URL+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		edit(req)
		if resp, err := rt.RoundTrip(req); err == nil {
			resp.Body.Close()
			t.Fatalf("%s %q sent", req.URL, req.Host)
		}
	}
	if n := e.calls.Load(); n != 0 {
		t.Fatalf("%d requests reached the server", n)
	}
}

// A body of unknown length goes chunked through the same writer.
func TestRoundTripSendsUnknownLengthChunked(t *testing.T) {
	var te []string
	s := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		te = r.TransferEncoding
		io.Copy(w, r.Body)
	}))
	defer s.Close()
	req, err := http.NewRequest(http.MethodPost, s.URL, io.MultiReader(strings.NewReader("un"), strings.NewReader("known")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := newTestRoundTripper().RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "unknown" || len(te) != 1 || te[0] != "chunked" {
		t.Fatalf("echo %q, Transfer-Encoding %v", body, te)
	}
}
