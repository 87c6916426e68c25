package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// FuzzRequestHead holds the outgoing request writer (checkOutgoing,
// then writeRequest) to net/http's sending path: its Transport's
// refusals, then Request.Write. Each writes the same generated request
// (method, path, query, header fields, body and its declared length,
// Close), and http.ReadRequest reads each back with its body. Both
// must refuse the request (an error, or bytes that do not read back),
// or both must read back the same method, target, headers, body and
// framing, and leave the same bytes over. The differences DESIGN.md §8
// lists as deliberate are left out of the comparison:
//
//   - User-Agent: Request.Write sends Go-http-client/1.1 when the
//     request has none, and only the first of several;
//   - CONNECT: Request.Write writes a tunnel request (the host as its
//     target when the path is empty, a body of unknown length with no
//     framing); writeRequest writes it as any other method, and the
//     platform tunnels nothing, so CONNECT is not compared;
//   - an empty body of unknown length on a method that usually has
//     none: Request.Write reads a byte first and sends no body,
//     writeRequest sends it chunked.
//
// fields holds the header fields as NUL-separated name, value pairs.
func FuzzRequestHead(f *testing.F) {
	for _, seed := range []struct {
		method, path, query, fields string
		body                        string
		mode                        uint8
		close                       bool
	}{
		{"POST", "/ws/publish", "", "Content-Type\x00application/xml\x00Authorization\x00Bearer t", "<notification/>", bodyPayload, false},
		{"GET", "/ws/subscription", "id=s-1", "", "", bodyNone, false},
		{"", "/", "a=b&c", "Connection\x00keep-alive", "", bodyNone, true},
		{"POST", "/cb", "", "X-Trace-Id\x00feedbeefcafe0001", "body", bodyUnknown, true},
		{"DELETE", "/x", "", "", "", bodyUnknown, false},
		{"POST", "/x", "", "", "", bodyUnset, false},
		{"PUT", "/p", "", "", "abc", bodyShort, false},
		{"PUT", "/p", "", "", "abc", bodyLong, false},
		{"POST", "/p", "", "", "abc", bodyNoBody, false},
		{"POST", "/p", "", "", "abc", bodyNilWithLength, false},
		{"G T", "/", "", "", "", bodyNone, false},
		{"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\nGET", "/", "", "", "", bodyNone, false},
		{"POST", "/", "q=\r\nX: y", "", "", bodyNone, false},
		{"POST", "/", "a b", "", "", bodyNone, false},
		{"POST", "/", "", "X-A\x00v\r\nX-B: w", "", bodyNone, false},
		{"POST", "/", "", "Bad Name\x00v", "", bodyNone, false},
		{"POST", "/", "", "Connection\x00keep close\x00User-Agent\x00probe", "", bodyNone, true},
		{"GET", "relative", "", "Host\x00other\x00Content-Length\x009", "", bodyNone, false},
	} {
		f.Add(seed.method, seed.path, seed.query, seed.fields, []byte(seed.body), seed.mode, seed.close)
	}
	f.Fuzz(func(t *testing.T, method, path, query, fields string, body []byte, mode uint8, closeConn bool) {
		if method == http.MethodConnect {
			return
		}
		mode %= bodyModes
		build := func() *http.Request {
			req := &http.Request{
				Method: method,
				URL:    &url.URL{Scheme: "http", Host: "127.0.0.1:8080", Path: path, RawQuery: query},
				Header: http.Header{},
				Close:  closeConn,
			}
			kv := strings.Split(fields, "\x00")
			for i := 0; i+1 < len(kv); i += 2 {
				req.Header.Add(kv[i], kv[i+1])
			}
			setBody(req, body, mode)
			return req
		}

		var ours bytes.Buffer
		req := build()
		err := checkOutgoing(req)
		if err == nil {
			bw := bufio.NewWriter(&ours)
			if err = writeRequest(bw, req); err == nil {
				err = bw.Flush()
			}
		}
		got, gotErr := readBackRequest(ours.Bytes(), err)

		var theirs bytes.Buffer
		req = build()
		err = transportRefusal(req)
		if err == nil {
			err = req.Write(&theirs)
		}
		want, wantErr := readBackRequest(theirs.Bytes(), err)

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("writeRequest: %v\n%q\nnet/http: %v\n%q", gotErr, ours.Bytes(), wantErr, theirs.Bytes())
		}
		if gotErr != nil {
			return
		}
		fail := func(what string) {
			t.Fatalf("%s differs:\nwriteRequest %q\nnet/http     %q", what, ours.Bytes(), theirs.Bytes())
		}
		if got.req.Method != want.req.Method || got.req.Proto != want.req.Proto || got.req.Host != want.req.Host {
			fail("request line or Host")
		}
		if got.req.RequestURI != want.req.RequestURI {
			fail("target")
		}
		gh, wh := got.req.Header.Clone(), want.req.Header.Clone()
		for _, h := range []http.Header{gh, wh} {
			// User-Agent is net/http's default; the framing fields
			// are compared as ContentLength and TransferEncoding.
			h.Del("User-Agent")
			h.Del("Content-Length")
			h.Del("Transfer-Encoding")
		}
		if !reflect.DeepEqual(gh, wh) {
			fail("header")
		}
		r := build()
		probed := len(body) == 0 && r.Body != nil && r.Body != http.NoBody && r.ContentLength <= 0 && usuallyLacksBody(method)
		if !probed && (got.req.ContentLength != want.req.ContentLength ||
			!reflect.DeepEqual(got.req.TransferEncoding, want.req.TransferEncoding)) {
			fail("framing")
		}
		if got.req.Close != want.req.Close {
			fail("Close")
		}
		if !bytes.Equal(got.body, want.body) || !bytes.Equal(got.rest, want.rest) {
			fail("body or the bytes after it")
		}
	})
}

// The body a generated request carries, with its declared length.
const (
	bodyNone          = iota // nil, ContentLength 0
	bodyPayload              // the callers' in-memory payload, exact length
	bodyUnknown              // a reader, ContentLength -1
	bodyUnset                // a reader, ContentLength 0: unknown as well
	bodyShort                // a reader one byte shorter than ContentLength
	bodyLong                 // a reader one byte longer than ContentLength
	bodyNoBody               // http.NoBody, ContentLength the body's length
	bodyNilWithLength        // nil, ContentLength the body's length
	bodyModes
)

func setBody(req *http.Request, body []byte, mode uint8) {
	n := int64(len(body))
	reader := io.NopCloser(bytes.NewReader(body))
	switch mode {
	case bodyPayload:
		req.Body, req.ContentLength = &payload{data: body}, n
	case bodyUnknown:
		req.Body, req.ContentLength = reader, -1
	case bodyUnset:
		req.Body = reader
	case bodyShort:
		req.Body, req.ContentLength = reader, n+1
	case bodyLong:
		req.Body, req.ContentLength = reader, n-1
	case bodyNoBody:
		req.Body, req.ContentLength = http.NoBody, n
	case bodyNilWithLength:
		req.ContentLength = n
	}
}

// transportRefusal is what net/http's Transport refuses before it
// calls Request.Write: a method that is not a token, a header field
// name that is not a token, and a field value holding a control
// character other than tab.
func transportRefusal(req *http.Request) error {
	if req.Method != "" && !isToken(req.Method) {
		return errRefused
	}
	for k, vv := range req.Header {
		if !isToken(k) {
			return errRefused
		}
		for _, v := range vv {
			if strings.ContainsFunc(v, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
				return errRefused
			}
		}
	}
	return nil
}

var errRefused = errors.New("refused by net/http's Transport")

// isToken reports whether s is an RFC 9110 token.
func isToken(s string) bool {
	return s != "" && !strings.ContainsFunc(s, func(r rune) bool {
		return !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' ||
			strings.ContainsRune("!#$%&'*+-.^_`|~", r))
	})
}

// usuallyLacksBody names the methods Request.Write probes an
// unknown-length body of before it sends it chunked.
func usuallyLacksBody(method string) bool {
	switch method {
	case "", "GET", "HEAD", "DELETE", "OPTIONS", "PROPFIND", "SEARCH":
		return true
	}
	return false
}

// readBack is a request as http.ReadRequest reads it back: the request,
// its body, and the bytes left after the body.
type readBack struct {
	req        *http.Request
	body, rest []byte
}

// readBackRequest reads data back as one request, or returns the
// writer's error when it refused.
func readBackRequest(data []byte, writeErr error) (*readBack, error) {
	if writeErr != nil {
		return nil, writeErr
	}
	br := bufio.NewReader(bytes.NewReader(data))
	req, err := http.ReadRequest(br)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	rest, _ := io.ReadAll(br)
	return &readBack{req: req, body: body, rest: rest}, nil
}
