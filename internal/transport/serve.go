package transport

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httputil"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Limits of the incoming call path: net/http's server defaults, which
// the platform's daemons ran with.
const (
	// maxHeaderBytes bounds a request line and header block:
	// http.DefaultMaxHeaderBytes plus the 4 KiB net/http allows past it.
	maxHeaderBytes = http.DefaultMaxHeaderBytes + 4096
	// maxPostHandlerRead is how much of a body its handler left unread
	// is discarded to keep the connection; past it the connection
	// closes.
	maxPostHandlerRead = 256 << 10
	// serveBufferSize sizes each connection's reader and writer. An
	// answer whose body fits in it goes out with its Content-Length.
	serveBufferSize = 4096
	// lingerAfterClose is how long a connection closed with request
	// bytes still arriving keeps reading them, so the peer reads the
	// answer instead of a reset.
	lingerAfterClose = 500 * time.Millisecond
)

// Connection states. A connection is idle while it waits for the
// first byte of its next request; only an idle connection is closed
// by Shutdown.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

// HTTPServer is the HTTP/1.1 server under every daemon: one goroutine
// per connection reads a request, calls the handler on that goroutine,
// and writes the answer, head and buffered body, with one flush. It
// keeps net/http's server rules (header limit, keep-alive, Expect,
// body drain, Date, Content-Type sniffing, panic recovery, graceful
// shutdown) and leaves out HTTP/2, TLS, Hijacker, Flusher and the
// read/write/idle timeouts, which no daemon sets.
type HTTPServer struct {
	handler http.Handler

	closing atomic.Bool // set by Shutdown: no new connections, no keep-alive

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	drained   chan struct{} // closed once closing is set and conns is empty
	isDrained bool
}

// NewHTTPServer returns a server that answers every request with h.
func NewHTTPServer(h http.Handler) *HTTPServer {
	return &HTTPServer{
		handler:   h,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*serverConn]struct{}),
		drained:   make(chan struct{}),
	}
}

// Serve accepts connections on ln until Shutdown, which makes it return
// http.ErrServerClosed; any other accept failure is returned, except a
// temporary one, which is retried after a pause as net/http does. Serve
// closes ln when it returns.
func (s *HTTPServer) Serve(ln net.Listener) error {
	defer ln.Close()
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return http.ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	var pause time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			// A temporary failure (out of file descriptors, say) is
			// waited out, as net/http does.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				pause = min(max(2*pause, 5*time.Millisecond), time.Second)
				time.Sleep(pause)
				continue
			}
			return err
		}
		pause = 0
		if c := s.track(nc); c != nil {
			go s.serveConn(c)
		}
	}
}

// Shutdown stops accepting, closes idle connections, and waits until
// every connection with a request in flight has answered it (with
// Connection: close) and closed, or until ctx ends, whose error it then
// returns.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing.Store(true)
	for ln := range s.listeners {
		ln.Close()
	}
	clear(s.listeners)
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.nc.Close()
		}
	}
	s.checkDrained()
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// track registers a new connection; nil (and nc closed) once the
// server is shutting down.
func (s *HTTPServer) track(nc net.Conn) *serverConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		nc.Close()
		return nil
	}
	c := &serverConn{srv: s, nc: nc, remoteAddr: nc.RemoteAddr().String(), remain: math.MaxInt64,
		bw: bufio.NewWriterSize(nc, serveBufferSize), header: make(http.Header)}
	c.br = bufio.NewReaderSize(c, serveBufferSize)
	s.conns[c] = struct{}{}
	return c
}

// forget closes c and drops it from the server.
func (s *HTTPServer) forget(c *serverConn) {
	c.state.Store(connClosed)
	c.nc.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.checkDrained()
	s.mu.Unlock()
}

// checkDrained closes drained when shutting down with no connection
// left; s.mu is held.
func (s *HTTPServer) checkDrained() {
	if s.closing.Load() && len(s.conns) == 0 && !s.isDrained {
		s.isDrained = true
		close(s.drained)
	}
}

// serverConn is one accepted connection, owned by its goroutine.
type serverConn struct {
	srv        *HTTPServer
	nc         net.Conn
	remoteAddr string
	br         *bufio.Reader // reads through the connection's Read
	bw         *bufio.Writer
	// remain is how many more bytes Read may take from nc: the header
	// limit while a request head is read, unbounded for its body.
	remain int64
	state  atomic.Int32

	// Reused by each request in turn: a ResponseWriter is not used
	// after its handler returns.
	res     response
	header  http.Header
	body    []byte // the answer's body while it is buffered
	scratch [1]byte
	num     [20]byte // a formatted number
	dateSec int64
	date    []byte // the Date value for second dateSec, in dateBuf
	dateBuf [32]byte
}

// Read implements io.Reader for the connection's bufio.Reader, within
// remain.
func (c *serverConn) Read(p []byte) (int, error) {
	if c.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > c.remain {
		p = p[:c.remain]
	}
	n, err := c.nc.Read(p)
	c.remain -= int64(n)
	return n, err
}

// serveConn answers c's requests in order until one asks to close, an
// answer cannot be written or the server shuts down.
func (s *HTTPServer) serveConn(c *serverConn) {
	defer s.forget(c)
	for {
		// Idle until a byte of the next request arrives. Shutdown
		// closes an idle connection; one it found active sees closing
		// here once its answer is out.
		c.state.Store(connIdle)
		if s.closing.Load() {
			return
		}
		c.remain = maxHeaderBytes
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		if !c.state.CompareAndSwap(connIdle, connActive) {
			return
		}
		req, err := http.ReadRequest(c.br)
		if err == nil {
			err = checkRequest(req)
		}
		if err != nil {
			c.reject(err)
			return
		}
		c.remain = math.MaxInt64
		if !s.serveRequest(c, req) {
			return
		}
	}
}

// requestError is a request refused before its handler, with the
// status and text net/http answers it with.
type requestError struct {
	status int
	text   string
}

func (e *requestError) Error() string { return e.text }

// checkRequest makes the checks net/http's server adds to
// http.ReadRequest's. ReadRequest removes the Host header, keeping its
// first value in req.Host, so a repeated Host cannot be seen here.
func checkRequest(req *http.Request) error {
	if req.ProtoMajor != 1 {
		return &requestError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	if req.ProtoAtLeast(1, 1) && req.Host == "" && req.Method != http.MethodConnect {
		return &requestError{http.StatusBadRequest, "missing required Host header"}
	}
	for k, vv := range req.Header {
		if !validFieldName(k) {
			return &requestError{http.StatusBadRequest, "invalid header name"}
		}
		for _, v := range vv {
			if !validFieldValue(v) {
				return &requestError{http.StatusBadRequest, "invalid header value"}
			}
		}
	}
	return nil
}

// reject answers a request refused before its handler, as net/http
// does: 431 past the header limit, the check's status, 400 for what
// does not parse; nothing when the peer went away.
func (c *serverConn) reject(err error) {
	status, text := http.StatusBadRequest, ""
	var re *requestError
	switch {
	case errors.As(err, &re):
		status, text = re.status, re.text
	case c.remain <= 0:
		status = http.StatusRequestHeaderFieldsTooLarge
	case quietReadError(err):
		return
	}
	c.bw.WriteString("HTTP/1.1 " + strconv.Itoa(status) + " " + http.StatusText(status) +
		"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n" +
		strconv.Itoa(status) + " " + http.StatusText(status))
	if text != "" {
		c.bw.WriteString(": " + text)
	}
	c.bw.Flush()
	if status == http.StatusRequestHeaderFieldsTooLarge {
		c.linger()
	}
}

// quietReadError reports the read failures net/http answers with
// silence: the peer closed, or the connection failed.
func quietReadError(err error) bool {
	if err == io.EOF {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "read"
}

// linger closes the write side and reads what the peer is still
// sending for up to lingerAfterClose, so that closing the socket with
// unread bytes does not reset the answer before the peer reads it.
func (c *serverConn) linger() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	c.nc.SetReadDeadline(time.Now().Add(lingerAfterClose))
	io.Copy(io.Discard, c.nc)
}

// serveRequest runs req's handler on the connection's goroutine and
// writes its answer; false when the connection must close.
func (s *HTTPServer) serveRequest(c *serverConn, req *http.Request) bool {
	req.RemoteAddr = c.remoteAddr
	clear(c.header)
	c.body = c.body[:0]
	w := &c.res
	*w = response{c: c, req: req, header: c.header, clen: -1, head: req.Method == http.MethodHead,
		closeAfter: req.Close}

	var ecr *expectContinue
	if expect := req.Header["Expect"]; headerHasToken(expect, "100-continue") {
		if req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
			ecr = &expectContinue{res: w, src: req.Body}
			req.Body = ecr
		}
	} else if len(expect) > 0 {
		w.closeAfter = true
		w.WriteHeader(http.StatusExpectationFailed)
		w.finish()
		return false
	}

	ctx, cancel := context.WithCancel(context.Background())
	ok := s.callHandler(w, req.WithContext(ctx))
	cancel()
	if !ok {
		return false
	}
	if !c.drain(req, ecr) {
		w.closeAfter = true
		if w.finish() {
			c.linger()
		}
		return false
	}
	return w.finish() && !w.closeAfter
}

// callHandler calls the handler; false when it panicked. A panic is
// logged (unless it is http.ErrAbortHandler) and its connection closes
// without an answer, as net/http does; the daemon keeps serving.
func (s *HTTPServer) callHandler(w *response, req *http.Request) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				stack := make([]byte, 64<<10)
				stack = stack[:runtime.Stack(stack, false)]
				telemetry.Logger().Error("http: panic serving request", "remote", w.c.remoteAddr,
					"method", req.Method, "path", req.URL.Path, "panic", p, "stack", string(stack))
			}
			ok = false
		}
	}()
	s.handler.ServeHTTP(w, req)
	return true
}

// drain discards what the handler left of req's body, up to
// maxPostHandlerRead; false when the connection cannot carry another
// request: more is left, the body failed, or its sender still waits
// for the 100 Continue that was never sent.
func (c *serverConn) drain(req *http.Request, ecr *expectContinue) bool {
	if req.Body == http.NoBody {
		return true
	}
	if ecr != nil && !ecr.sent {
		return false
	}
	// Handlers read their bodies to EOF, so one read settles it.
	n, err := req.Body.Read(c.scratch[:])
	if n == 0 && (err == io.EOF || err == http.ErrBodyReadAfterClose) {
		return true
	}
	if err != nil {
		return false
	}
	_, err = io.CopyN(io.Discard, req.Body, maxPostHandlerRead)
	return err == io.EOF
}

// expectContinue sends the interim 100 Continue when the handler first
// reads a body its client holds back until it is asked for.
type expectContinue struct {
	res  *response
	src  io.ReadCloser
	sent bool
}

func (e *expectContinue) Read(p []byte) (int, error) {
	if !e.sent && !e.res.committed {
		e.sent = true
		bw := e.res.c.bw
		bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		if err := bw.Flush(); err != nil {
			return 0, err
		}
	}
	return e.src.Read(p)
}

func (e *expectContinue) Close() error { return e.src.Close() }

// response is the http.ResponseWriter of one request. The body is held
// in the connection's buffer until the handler returns, so the head can
// carry its length; a body that outgrows serveBufferSize commits the
// head and goes out as it is written: chunked unless the handler set a
// Content-Length, or until the connection closes for an HTTP/1.0 peer.
type response struct {
	c          *serverConn
	req        *http.Request
	header     http.Header
	status     int   // 0 until WriteHeader
	clen       int64 // the Content-Length the handler set, -1 if none
	written    int64 // body bytes the handler wrote
	head       bool  // a HEAD request: the body is counted, not sent
	committed  bool  // the head is in the connection's writer
	chunked    io.WriteCloser
	closeAfter bool // the connection closes after this answer
}

func (w *response) Header() http.Header { return w.header }

// Status is the status the handler set, 0 before it set one; the
// telemetry middleware labels the request with it.
func (w *response) Status() int { return w.status }

// WriteHeader records the status; informational statuses are not
// sent, and a second call is ignored.
func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic("transport: invalid WriteHeader code " + strconv.Itoa(code))
	}
	if w.status != 0 || code < 200 {
		return
	}
	w.status = code
	if cl := w.header["Content-Length"]; len(cl) > 0 {
		if v, err := strconv.ParseInt(cl[0], 10, 64); err == nil && v >= 0 {
			w.clen = v
		} else {
			delete(w.header, "Content-Length")
		}
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	if w.clen >= 0 && w.written+int64(len(p)) > w.clen {
		return 0, http.ErrContentLength
	}
	w.written += int64(len(p))
	c := w.c
	if w.head {
		// Kept only as far as Content-Type sniffing looks.
		c.body = append(c.body, p[:min(len(p), max(512-len(c.body), 0))]...)
		return len(p), nil
	}
	if !w.committed {
		if len(c.body)+len(p) <= serveBufferSize {
			c.body = append(c.body, p...)
			return len(p), nil
		}
		if err := w.commit(); err != nil {
			return 0, err
		}
	}
	if w.chunked != nil {
		return w.chunked.Write(p)
	}
	return c.bw.Write(p)
}

// commit writes the head of an answer whose body outgrew the buffer,
// then the buffered part of the body.
func (w *response) commit() error {
	w.committed = true
	c := w.c
	switch {
	case w.clen >= 0:
	case w.req.ProtoAtLeast(1, 1):
		w.chunked = httputil.NewChunkedWriter(c.bw)
	default:
		w.closeAfter = true // an HTTP/1.0 body ends where the connection does
	}
	w.writeHead(-1)
	if w.chunked != nil {
		_, err := w.chunked.Write(c.body)
		return err
	}
	_, err := c.bw.Write(c.body)
	return err
}

// finish completes the answer after the handler returned and flushes
// it; false when it could not be written.
func (w *response) finish() bool {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	c := w.c
	switch {
	case !w.committed:
		clen := int64(-1)
		if w.clen < 0 && bodyAllowed(w.status) && (!w.head || w.written > 0) {
			clen = w.written
		}
		w.writeHead(clen)
		if !w.head {
			c.bw.Write(c.body)
		}
	case w.chunked != nil:
		w.chunked.Close()
		c.bw.WriteString("\r\n")
	}
	if w.clen >= 0 && w.written != w.clen && !w.head {
		w.closeAfter = true // the peer was promised more than it got
	}
	return c.bw.Flush() == nil
}

// writeHead writes the status line and headers: the handler's, then
// Date, a sniffed Content-Type, the Content-Length clen (none when
// negative), the framing and the connection's fate.
func (w *response) writeHead(clen int64) {
	c, h, bw := w.c, w.header, w.c.bw
	if c.srv.closing.Load() || headerHasToken(h["Connection"], "close") {
		w.closeAfter = true
	}
	bw.WriteString("HTTP/1.1 ")
	bw.Write(strconv.AppendInt(c.num[:0], int64(w.status), 10))
	bw.WriteByte(' ')
	if text := http.StatusText(w.status); text != "" {
		bw.WriteString(text)
	} else {
		bw.WriteString("status code")
	}
	bw.WriteString("\r\n")
	for k, vv := range h {
		if !validFieldName(k) {
			continue
		}
		for _, v := range vv {
			writeField(bw, k, v)
		}
	}
	if _, ok := h["Date"]; !ok {
		bw.WriteString("Date: ")
		bw.Write(c.now())
		bw.WriteString("\r\n")
	}
	if _, ok := h["Content-Type"]; !ok && bodyAllowed(w.status) && len(c.body) > 0 {
		writeField(bw, "Content-Type", http.DetectContentType(c.body))
	}
	if clen >= 0 {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(c.num[:0], clen, 10))
		bw.WriteString("\r\n")
	}
	if w.chunked != nil {
		bw.WriteString("Transfer-Encoding: chunked\r\n")
	}
	switch {
	case w.closeAfter && w.req.ProtoAtLeast(1, 1) && len(h["Connection"]) == 0:
		bw.WriteString("Connection: close\r\n")
	case !w.closeAfter && !w.req.ProtoAtLeast(1, 1):
		bw.WriteString("Connection: keep-alive\r\n")
	}
	bw.WriteString("\r\n")
}

// now is the Date value, formatted once per second.
func (c *serverConn) now() []byte {
	t := time.Now()
	if sec := t.Unix(); sec != c.dateSec || c.date == nil {
		c.date = t.UTC().AppendFormat(c.dateBuf[:0], http.TimeFormat)
		c.dateSec = sec
	}
	return c.date
}

// bodyAllowed reports whether an answer with status may carry a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// writeField writes one header line. A CR or LF in the value is sent
// as a space, as net/http does for answers; outgoing requests refuse
// such a value before they get here.
func writeField(bw *bufio.Writer, k, v string) {
	bw.WriteString(k)
	bw.WriteString(": ")
	if strings.ContainsAny(v, "\r\n") {
		for i := 0; i < len(v); i++ {
			if b := v[i]; b == '\r' || b == '\n' {
				bw.WriteByte(' ')
			} else {
				bw.WriteByte(b)
			}
		}
	} else {
		bw.WriteString(v)
	}
	bw.WriteString("\r\n")
}

// validFieldName reports whether k is a header name: an RFC 9110
// token.
func validFieldName[T string | []byte](k T) bool {
	if len(k) == 0 {
		return false
	}
	for i := 0; i < len(k); i++ {
		b := k[i]
		if !('a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' ||
			strings.IndexByte("!#$%&'*+-.^_`|~", b) >= 0) {
			return false
		}
	}
	return true
}

// validFieldValue reports whether v holds no control character other
// than HTAB.
func validFieldValue[T string | []byte](v T) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < ' ' && b != '\t' || b == 0x7f {
			return false
		}
	}
	return true
}
