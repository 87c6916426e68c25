package transport

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"strconv"
	"sync"
	"time"
)

// Pool limits of the outgoing call path: the MaxIdleConnsPerHost and
// IdleConnTimeout the platform clients ran net/http's Transport with.
const (
	maxIdleConnsPerHost = 64
	idleConnTimeout     = 90 * time.Second
)

// errNoHost refuses a URL that names no peer, as net/http does.
var errNoHost = errors.New("http: no Host in request URL")

// roundTripper is the HTTP/1.1 client under every outgoing call: the
// calling goroutine takes an idle keep-alive connection to the host (or
// dials one), writes the request, flushes and reads the answer, with no
// goroutine between it and the socket. The connection returns to the
// pool when the answer's body reaches EOF. A request whose URL scheme
// is not http goes to http.DefaultTransport unchanged.
type roundTripper struct {
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*persistConn // by host:port, most recently used last
	// sweeper closes connections idle for idleConnTimeout; nil while
	// the pool is empty.
	sweeper *time.Timer
}

// persistConn is one keep-alive connection and its buffers.
type persistConn struct {
	addr   string
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	idleAt time.Time
}

// NewTunedTransport returns the round tripper the platform clients and
// the controller's callback deliverer send through: synchronous
// HTTP/1.1 over a pool of at most 64 idle keep-alive connections per
// host, each closed after 90 s unused, so the same few hosts are called
// over warm connections whatever the concurrency.
func NewTunedTransport() http.RoundTripper {
	return &roundTripper{dialer: net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}}
}

// RoundTrip implements http.RoundTripper. The request's context bounds
// the dial, the write and the read of the whole answer, body included.
// An idle connection the server has closed meanwhile shows as a failure
// before any byte of an answer: the request is then sent once more, on a
// fresh connection, when its body can be rewound (a payload, or
// GetBody).
func (t *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		return http.DefaultTransport.RoundTrip(req)
	}
	return t.roundTrip(req.Context(), req, time.Time{})
}

// roundTrip is RoundTrip of an http URL under ctx, which stands in for
// req's own context, and a deadline (zero for none). The earlier of the
// deadline and ctx's goes on the connection, so a deadline costs no
// timer of its own, and the end of ctx cuts the exchange only when ctx
// can end before its deadline (ctx.Done is not nil). Either way the
// call fails with the context's error.
func (t *roundTripper) roundTrip(ctx context.Context, req *http.Request, deadline time.Time) (*http.Response, error) {
	if err := checkOutgoing(req); err != nil {
		closeBody(req)
		return nil, err
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	if pc := t.get(addr); pc != nil {
		resp, unanswered, err := t.exchange(ctx, deadline, pc, req)
		if !unanswered {
			return resp, err
		}
		if req.Body != nil && req.Body != http.NoBody {
			if p, ok := req.Body.(*payload); ok {
				p.off = 0
			} else if req.GetBody == nil {
				return nil, err
			} else {
				body, berr := req.GetBody()
				if berr != nil {
					return nil, err
				}
				resend := *req
				resend.Body = body
				req = &resend
			}
		}
	}
	pc, err := t.dial(ctx, deadline, addr)
	if err != nil {
		closeBody(req)
		return nil, err
	}
	resp, _, err := t.exchange(ctx, deadline, pc, req)
	return resp, err
}

// closeBody closes a request body the round trip will not send, as
// the RoundTripper contract asks.
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// dial opens a fresh connection to addr before the deadline.
func (t *roundTripper) dial(ctx context.Context, deadline time.Time, addr string) (*persistConn, error) {
	d := t.dialer
	d.Deadline = deadline
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if cut := ended(ctx, deadline); cut != nil {
			err = cut
		}
		return nil, err
	}
	return &persistConn{addr: addr, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// ended is the error a failed exchange reports in place of its own
// when it was cut short: the context's once it ended, DeadlineExceeded
// once the deadline passed (the socket's deadline cut it); nil if
// neither.
func ended(ctx context.Context, deadline time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// exchange writes req on pc and reads the head of the answer, skipping
// 1xx answers. The deadline is the socket's; the end of ctx moves it
// into the past, and the connection is then discarded. On failure pc is
// closed, and unanswered reports whether the peer sent no byte of an
// answer before the context ended or the deadline passed: the one
// failure a stale idle connection causes.
func (t *roundTripper) exchange(ctx context.Context, deadline time.Time, pc *persistConn, req *http.Request) (resp *http.Response, unanswered bool, err error) {
	nc := pc.nc
	nc.SetDeadline(deadline) // also clears the last exchange's
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { nc.SetDeadline(time.Unix(1, 0)) })
	}
	if err = writeRequest(pc.bw, req); err == nil {
		err = pc.bw.Flush()
	}
	if err == nil {
		_, err = pc.br.Peek(1)
	}
	unanswered = err != nil
	var a *answer
	for err == nil {
		if a, err = readAnswer(pc.br, req); err == nil && (a.resp.StatusCode < 100 || a.resp.StatusCode >= 200) {
			break
		}
	}
	if err != nil {
		if stop != nil {
			stop()
		}
		nc.Close()
		if cut := ended(ctx, deadline); cut != nil {
			return nil, false, cut
		}
		return nil, unanswered, err
	}
	resp = &a.resp
	if resp.Body == http.NoBody {
		t.release(pc, stop, !resp.Close)
		return resp, false, nil
	}
	a.body = body{t: t, pc: pc, ctx: ctx, deadline: deadline, stop: stop, keep: !resp.Close,
		src: resp.Body, n: resp.ContentLength}
	resp.Body = &a.body
	return resp, false, nil
}

// release ends pc's round trip: back to the pool when the answer
// allows it and the context did not cut the socket, closed otherwise.
// A pooled connection keeps its deadline until the next exchange sets
// its own.
func (t *roundTripper) release(pc *persistConn, stop func() bool, keep bool) {
	if stop != nil && !stop() {
		keep = false
	}
	if !keep {
		pc.nc.Close()
		return
	}
	pc.idleAt = time.Now()
	t.mu.Lock()
	conns := t.idle[pc.addr]
	if len(conns) >= maxIdleConnsPerHost {
		t.mu.Unlock()
		pc.nc.Close()
		return
	}
	if t.idle == nil {
		t.idle = make(map[string][]*persistConn)
	}
	t.idle[pc.addr] = append(conns, pc)
	if t.sweeper == nil {
		t.sweeper = time.AfterFunc(idleConnTimeout, t.sweep)
	}
	t.mu.Unlock()
}

// get takes the host's most recently used idle connection, nil if none.
func (t *roundTripper) get(addr string) *persistConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	conns := t.idle[addr]
	n := len(conns)
	if n == 0 {
		return nil
	}
	pc := conns[n-1]
	conns[n-1] = nil
	t.idle[addr] = conns[:n-1]
	return pc
}

// sweep closes every connection idle for idleConnTimeout and re-arms
// for the next one to reach it.
func (t *roundTripper) sweep() {
	now := time.Now()
	var stale []*persistConn
	next := time.Duration(-1)
	t.mu.Lock()
	for addr, conns := range t.idle {
		n := 0 // the oldest come first
		for n < len(conns) && now.Sub(conns[n].idleAt) >= idleConnTimeout {
			n++
		}
		stale = append(stale, conns[:n]...)
		if n == len(conns) {
			delete(t.idle, addr)
			continue
		}
		if d := idleConnTimeout - now.Sub(conns[n].idleAt); next < 0 || d < next {
			next = d
		}
		m := copy(conns, conns[n:])
		clear(conns[m:])
		t.idle[addr] = conns[:m]
	}
	if next >= 0 {
		t.sweeper.Reset(next)
	} else {
		t.sweeper = nil
	}
	t.mu.Unlock()
	for _, pc := range stale {
		pc.nc.Close()
	}
}

// body is an answer's body while its connection is out of the pool: EOF
// hands the connection back, a read error or a Close before EOF
// discards it. It reads src, http.ReadResponse's body, or when that is
// nil the n bytes a Content-Length announced, straight from the
// connection's reader.
type body struct {
	t        *roundTripper
	pc       *persistConn // nil once released
	ctx      context.Context
	deadline time.Time
	stop     func() bool // nil when ctx cannot end
	keep     bool
	err      error // what every Read answers once pc is released
	src      io.ReadCloser
	n        int64
}

func (b *body) Read(p []byte) (n int, err error) {
	if b.pc == nil {
		return 0, b.err
	}
	if b.src != nil {
		n, err = b.src.Read(p)
	} else {
		if int64(len(p)) > b.n {
			p = p[:b.n]
		}
		n, err = b.pc.br.Read(p)
		b.n -= int64(n)
		switch {
		case b.n == 0:
			err = io.EOF
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		}
	}
	switch {
	case err == io.EOF:
		b.done(b.keep, err)
	case err != nil:
		if cut := ended(b.ctx, b.deadline); cut != nil {
			err = cut
		}
		b.done(false, err)
	}
	return n, err
}

func (b *body) Close() error {
	if b.pc != nil {
		// The rest of the answer is unread: the connection cannot carry
		// another exchange.
		b.done(false, nil)
	}
	b.err = http.ErrBodyReadAfterClose
	return nil
}

func (b *body) done(keep bool, err error) {
	pc := b.pc
	b.pc, b.err = nil, err
	b.t.release(pc, b.stop, keep)
}

// payload is a request body held in memory: written straight from its
// bytes, and rewound for a resend, with no GetBody closure.
type payload struct {
	data []byte
	off  int
}

func (p *payload) Read(b []byte) (int, error) {
	if p.off >= len(p.data) {
		return 0, io.EOF
	}
	n := copy(b, p.data[p.off:])
	p.off += n
	return n, nil
}

func (p *payload) Close() error { return nil }

// checkOutgoing refuses, before a connection is taken, what net/http's
// Transport refuses and what Request.Write would refuse after writing
// part of it: a URL with no host; a method that is not a token; a
// ContentLength with a nil body; a header name that is not a
// token and a value holding a control character, CR and LF among them
// (written out, such a value would end the header line early and let
// its remainder pass for headers of its own); and a control character
// in the query, an opaque URL or the Host, which would end the request
// line.
func checkOutgoing(req *http.Request) error {
	if req.URL.Host == "" {
		return errNoHost
	}
	if req.Method != "" && !validFieldName(req.Method) {
		return errors.New("transport: invalid method " + strconv.Quote(req.Method))
	}
	if req.ContentLength != 0 && req.Body == nil {
		return errors.New("transport: request ContentLength " + strconv.FormatInt(req.ContentLength, 10) + " with nil body")
	}
	for k, vv := range req.Header {
		if !validFieldName(k) {
			return errors.New("transport: invalid header field name " + strconv.Quote(k))
		}
		for _, v := range vv {
			if !validFieldValue(v) {
				return errors.New("transport: invalid header field value for " + strconv.Quote(k))
			}
		}
	}
	if !validTarget(req.URL.RawQuery) || !validTarget(req.URL.Opaque) || !validTarget(req.URL.Host) || !validTarget(req.Host) {
		return errors.New("transport: invalid control character in request URL or Host")
	}
	return nil
}

// validTarget reports whether s, a part of a request line or the Host,
// holds no control character, as net/http's Transport requires; the
// URL's path needs no check, as it is written escaped.
func validTarget(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' || b == 0x7f {
			return false
		}
	}
	return true
}

// writeRequest writes req, which checkOutgoing passed, to bw, head and
// body, and closes the body. The head is the request line (an empty
// method is GET), Host, Connection: close when req.Close asks for it
// and the first Connection field does not list it, the request's
// headers, then Content-Length, or Transfer-Encoding: chunked for a
// body of unknown length. A body longer than its ContentLength is an
// error, as in Request.Write. FuzzRequestHead holds the bytes to
// Request.Write's; DESIGN.md §8 lists where they differ.
func writeRequest(bw *bufio.Writer, req *http.Request) error {
	if req.Body != nil {
		defer req.Body.Close()
	}
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	if req.Method == "" {
		bw.WriteString(http.MethodGet)
	} else {
		bw.WriteString(req.Method)
	}
	bw.WriteByte(' ')
	bw.WriteString(req.URL.RequestURI())
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(host)
	bw.WriteString("\r\n")
	if req.Close && !listsClose(req.Header.Get("Connection")) {
		bw.WriteString("Connection: close\r\n")
	}
	for k, vv := range req.Header {
		switch k {
		case "Host", "Content-Length", "Transfer-Encoding", "Trailer":
			continue // written from the request's fields
		}
		for _, v := range vv {
			writeField(bw, k, v)
		}
	}
	n := req.ContentLength
	if req.Body == nil || req.Body == http.NoBody {
		n = 0
	} else if n == 0 {
		n = -1 // a body of unknown length
	}
	switch {
	case n < 0:
		bw.WriteString("Transfer-Encoding: chunked\r\n\r\n")
		cw := httputil.NewChunkedWriter(bw)
		if _, err := io.Copy(cw, req.Body); err != nil {
			return err
		}
		if err := cw.Close(); err != nil {
			return err
		}
		_, err := bw.WriteString("\r\n")
		return err
	case n > 0 || req.Method == http.MethodPost || req.Method == http.MethodPut || req.Method == http.MethodPatch:
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), n, 10))
		bw.WriteString("\r\n")
	}
	if _, err := bw.WriteString("\r\n"); err != nil || n == 0 {
		return err
	}
	if p, ok := req.Body.(*payload); ok && int64(len(p.data)-p.off) == n {
		_, err := bw.Write(p.data[p.off:])
		p.off = len(p.data)
		return err
	}
	if _, err := io.CopyN(bw, req.Body, n); err != nil {
		return err
	}
	var extra [1]byte
	if k, _ := req.Body.Read(extra[:]); k > 0 {
		return errors.New("transport: request body longer than its ContentLength " + strconv.FormatInt(n, 10))
	}
	return nil
}

// listsClose reports whether a Connection field value names close, by
// the rule Request.Write adds its own Connection: close with: the token
// set off by the value's ends, spaces, tabs or commas, in any case.
func listsClose(v string) bool {
	for i := 0; i+len("close") <= len(v); i++ {
		end := i + len("close")
		if (i == 0 || isTokenBoundary(v[i-1])) && (end == len(v) || isTokenBoundary(v[end])) &&
			asciiEqualFold(v[i:end], "close") {
			return true
		}
	}
	return false
}

func isTokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }
