package transport

import (
	"bufio"
	"bytes"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
)

// answer is the response to one exchange together with the body that
// hands its connection back and room for its first header values: one
// allocation where http.ReadResponse makes a dozen.
type answer struct {
	resp http.Response
	body body
	vals [4]string
}

// readAnswer reads the head of the answer to req from br. A head in the
// form the platform's servers send is parsed from br's buffer into one
// string:
//   - an HTTP/1.1 or HTTP/1.0 status line with a three-digit code of at
//     least 100;
//   - header lines "Name: value" ending in CRLF, each name a token and
//     no value holding a control character other than HTAB;
//   - no Transfer-Encoding, Trailer or Pragma, at most one
//     Content-Length, which parses, and a Content-Length wherever the
//     status and method let the answer carry a body.
//
// Every other head, and one longer than br's buffer, goes to
// http.ReadResponse, so what is accepted and refused, and how the body
// is framed, stay net/http's; FuzzResponseHead holds the two to the same
// reading of any input. A parsed head leaves Body nil when ContentLength
// bytes of body follow on br.
func readAnswer(br *bufio.Reader, req *http.Request) (*answer, error) {
	if a := parseHead(br, req); a != nil {
		return a, nil
	}
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		return nil, err
	}
	return &answer{resp: *resp}, nil
}

// parseHead parses and consumes a head of the form readAnswer names once
// all of it is in br's buffer; nil, with nothing consumed, for any other
// head. Each line is checked as it arrives, so a head net/http refuses
// on its first lines goes to it without waiting for the rest.
func parseHead(br *bufio.Reader, req *http.Request) *answer {
	var buf []byte
	n, end, fields := 0, 0, 0
	for end == 0 {
		buf, _ = br.Peek(br.Buffered())
		for end == 0 {
			i := bytes.IndexByte(buf[n:], '\n')
			if i < 0 {
				break
			}
			line := buf[n : n+i]
			if len(line) == 0 || line[len(line)-1] != '\r' {
				return nil // a bare LF ends the line
			}
			line = line[:len(line)-1]
			switch {
			case n == 0:
				if !statusLine(line) {
					return nil
				}
			case len(line) == 0:
				end = n + i + 1
			default:
				if !fieldLine(line) {
					return nil
				}
				fields++
			}
			n += i + 1
		}
		if end == 0 && (br.Buffered() == br.Size() || peekMore(br) != nil) {
			return nil
		}
	}

	a := &answer{}
	r := &a.resp
	head := string(buf[:end])
	line, rest, _ := strings.Cut(head, "\r\n")
	r.Proto, r.Status = line[:8], line[9:]
	r.ProtoMajor, r.ProtoMinor = 1, int(line[7]-'0')
	r.StatusCode = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	r.Request = req
	h := make(http.Header, fields)
	vals := a.vals[:]
	if fields > len(vals) {
		vals = make([]string, fields)
	}
	for k := 0; rest != "\r\n"; {
		line, rest, _ = strings.Cut(rest, "\r\n")
		name, v, _ := strings.Cut(line, ":")
		name, v = textproto.CanonicalMIMEHeaderKey(name), strings.Trim(v, " \t")
		if vv, ok := h[name]; ok {
			h[name] = append(vv, v)
			continue
		}
		vals[k] = v
		h[name] = vals[k : k+1 : k+1]
		k++
	}
	r.Header = h

	// The framing rules of net/http's readTransfer for the heads parsed
	// here.
	for _, name := range [...]string{"Transfer-Encoding", "Trailer", "Pragma"} {
		if _, ok := h[name]; ok {
			return nil
		}
	}
	r.ContentLength = -1
	switch cl := h["Content-Length"]; len(cl) {
	case 0:
	case 1:
		v, err := strconv.ParseUint(cl[0], 10, 63)
		if err != nil {
			return nil
		}
		r.ContentLength = int64(v)
	default:
		return nil
	}
	conn := h["Connection"]
	r.Close = headerHasToken(conn, "close")
	if r.ProtoMinor == 0 {
		r.Close = r.Close || !headerHasToken(conn, "keep-alive")
	} else if r.Close {
		delete(h, "Connection")
	}
	switch {
	case req.Method == http.MethodHead:
		r.Body = http.NoBody
	case !bodyAllowed(r.StatusCode):
		r.Body, r.ContentLength = http.NoBody, 0
	case r.ContentLength < 0:
		return nil // a body that ends where the connection does
	case r.ContentLength == 0:
		r.Body = http.NoBody
	}
	br.Discard(end)
	return a
}

// peekMore waits until br holds at least one byte more than it does.
func peekMore(br *bufio.Reader) error {
	_, err := br.Peek(br.Buffered() + 1)
	return err
}

// statusLine reports whether line is "HTTP/1.x NNN[ reason]" with x 0
// or 1 and NNN at least 100.
func statusLine(line []byte) bool {
	return len(line) >= 12 && string(line[:7]) == "HTTP/1." && (line[7] == '0' || line[7] == '1') &&
		line[8] == ' ' && '1' <= line[9] && line[9] <= '9' && isDigit(line[10]) && isDigit(line[11]) &&
		(len(line) == 12 || line[12] == ' ')
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// fieldLine reports whether line is "Name:value" with Name a token and
// no control character but HTAB in value; a line that starts with
// white space, which net/http folds into the line above or refuses, is
// not.
func fieldLine(line []byte) bool {
	i := bytes.IndexByte(line, ':')
	return i > 0 && validFieldName(line[:i]) && validFieldValue(line[i+1:])
}

// headerHasToken reports whether a comma-separated header value lists
// token, compared as net/http does: ASCII case-insensitively, each
// element trimmed of spaces and tabs.
func headerHasToken(vv []string, token string) bool {
	for _, v := range vv {
		for v != "" {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if elem = strings.Trim(elem, " \t"); len(elem) == len(token) && asciiEqualFold(elem, token) {
				return true
			}
		}
	}
	return false
}

// asciiEqualFold reports whether a and b, of equal length, are equal
// ignoring ASCII case; a non-ASCII byte equals nothing.
func asciiEqualFold(a, b string) bool {
	for i := 0; i < len(a); i++ {
		x, y := a[i], b[i]
		if x >= 0x80 || lowerASCII(x) != lowerASCII(y) {
			return false
		}
	}
	return true
}

func lowerASCII(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}
