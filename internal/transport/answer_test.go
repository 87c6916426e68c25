package transport

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// The heads the platform's servers send are parsed by readAnswer
// itself; the rest go to http.ReadResponse.
func TestReadAnswerParsesPlatformHeads(t *testing.T) {
	for _, tc := range []struct {
		head   string
		method string
		parsed bool
	}{
		{"HTTP/1.1 200 OK\r\nContent-Type: application/xml\r\nContent-Length: 5\r\nDate: x\r\n\r\nhello", "POST", true},
		{"HTTP/1.1 204 No Content\r\nDate: Sun, 30 May 2010 09:00:00 GMT\r\n\r\n", "POST", true},
		{"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n", "POST", true},
		{"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", "GET", true},
		{"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", "GET", true},
		{"HTTP/1.1 200 OK\r\nx-lower-case: v\r\nContent-Length: 0\r\n\r\n", "GET", true},
		{"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n", "HEAD", true},
		{"HTTP/1.1 100 Continue\r\n\r\n", "POST", true},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", "GET", false},
		{"HTTP/1.1 200 OK\r\n\r\nuntil close", "GET", false},
		{"HTTP/1.1 200 OK\nContent-Length: 0\n\n", "GET", false},
		{"HTTP/1.1 200 OK\r\nX-A: folded\r\n value\r\nContent-Length: 0\r\n\r\n", "GET", false},
		{"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx", "GET", false},
		{"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "GET", false},
		{"HTTP/1.1 200 OK\r\nPragma: no-cache\r\nContent-Length: 0\r\n\r\n", "GET", false},
		{"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n", "GET", false},
		{"HTTP/1.1 099 Low\r\nContent-Length: 0\r\n\r\n", "GET", false},
		{"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n" + strings.Repeat("X-Pad: "+strings.Repeat("p", 100)+"\r\n", 50) + "\r\n", "GET", false},
	} {
		br := bufio.NewReader(strings.NewReader(tc.head))
		if a := parseHead(br, &http.Request{Method: tc.method}); (a != nil) != tc.parsed {
			t.Errorf("%q: parsed %v, want %v", tc.head, a != nil, tc.parsed)
		}
		checkAnswer(t, []byte(tc.head), tc.method)
	}
}

// FuzzResponseHead holds readAnswer to http.ReadResponse: on any input
// both accept it or both refuse it, and an accepted head reads the same
// status, headers, length, framing and body.
func FuzzResponseHead(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/xml\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 204 No Content\r\nDate: Sun, 30 May 2010 09:00:00 GMT\r\n\r\n",
		"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nConnection: a, close\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 7\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"HTTP/1.1 200\r\nContent-Length:   3  \r\n\r\nabc",
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, head bool) {
		method := http.MethodPost
		if head {
			method = http.MethodHead
		}
		checkAnswer(t, data, method)
	})
}

// checkAnswer reads data as the answer to a request with method through
// http.ReadResponse and through readAnswer and fails t where they
// differ.
func checkAnswer(t *testing.T, data []byte, method string) {
	t.Helper()
	req := &http.Request{Method: method}
	want, wantErr := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), req)
	br := bufio.NewReader(bytes.NewReader(data))
	a, err := readAnswer(br, req)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: readAnswer error %v, http.ReadResponse error %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	got := &a.resp
	if got.Status != want.Status || got.StatusCode != want.StatusCode || got.Proto != want.Proto ||
		got.ProtoMajor != want.ProtoMajor || got.ProtoMinor != want.ProtoMinor {
		t.Fatalf("%q: status %q %d %q, want %q %d %q", data, got.Status, got.StatusCode, got.Proto,
			want.Status, want.StatusCode, want.Proto)
	}
	if !reflect.DeepEqual(got.Header, want.Header) {
		t.Fatalf("%q: header %q, want %q", data, got.Header, want.Header)
	}
	if got.ContentLength != want.ContentLength || got.Close != want.Close ||
		!reflect.DeepEqual(got.TransferEncoding, want.TransferEncoding) || got.Request != req {
		t.Fatalf("%q: length %d close %v encoding %q, want %d %v %q", data, got.ContentLength, got.Close,
			got.TransferEncoding, want.ContentLength, want.Close, want.TransferEncoding)
	}
	if (got.Body == http.NoBody) != (want.Body == http.NoBody) {
		t.Fatalf("%q: body %T, want %T", data, got.Body, want.Body)
	}
	wantBody, wantErr := io.ReadAll(want.Body)
	var gotBody []byte
	if got.Body == nil {
		// ContentLength bytes follow on br.
		gotBody, err = io.ReadAll(io.LimitReader(br, got.ContentLength))
		if err == nil && int64(len(gotBody)) < got.ContentLength {
			err = io.ErrUnexpectedEOF
		}
	} else {
		gotBody, err = io.ReadAll(got.Body)
	}
	if !bytes.Equal(gotBody, wantBody) || (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: body %q (%v), want %q (%v)", data, gotBody, err, wantBody, wantErr)
	}
}
