// Package jsonx holds the tiny append-style JSON helpers used by hot
// paths that hand-roll their JSON (audit records, index records) instead
// of paying encoding/json's reflection on every write, and the strict
// single-pass Reader that reads such records back. Like xmlx, the
// writers only ever produce output encoding/json understands, and the
// reader accepts only the layouts they write: it declines everything
// else, so that callers fall back to encoding/json, which stays the
// definition of what a stored record means.
package jsonx

import (
	"bytes"
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a quoted JSON string, escaping only what
// validity requires: quotes, backslashes and control characters. HTML
// escaping (<, >, &) is deliberately skipped — it is an encoding/json
// default for browser embedding, not a JSON validity rule.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Reader is a single forward pass over one JSON document whose layout
// the caller knows byte for byte. Every method is a no-op once the
// reader has declined; callers run the whole document through it and ask
// Done at the end.
type Reader struct {
	buf  []byte
	pos  int
	fail bool
}

// NewReader starts a pass over data.
func NewReader(data []byte) Reader { return Reader{buf: data} }

// Done reports whether the whole input was consumed without declining.
func (r *Reader) Done() bool { return !r.fail && r.pos == len(r.buf) }

// Expect consumes lit, or declines when something else comes next.
func (r *Reader) Expect(lit string) {
	if !r.fail && len(r.buf)-r.pos >= len(lit) && string(r.buf[r.pos:r.pos+len(lit)]) == lit {
		r.pos += len(lit)
	} else {
		r.fail = true
	}
}

// String consumes a quoted string and returns it unescaped. It resolves
// exactly the escapes AppendString writes — \" \\ \n \r \t and \u00XX —
// and declines on any other escape, a raw control character, invalid
// UTF-8 (encoding/json would substitute U+FFFD) and an unterminated
// string.
func (r *Reader) String() string {
	r.Expect(`"`)
	if r.fail {
		return ""
	}
	start := r.pos
	var out []byte // non-nil once an escape forced a copy
	for i := start; i < len(r.buf); {
		switch c := r.buf[i]; {
		case c == '"':
			r.pos = i + 1
			if out != nil {
				return string(append(out, r.buf[start:i]...))
			}
			return string(r.buf[start:i])
		case c == '\\':
			ch, n := unescape(r.buf[i:])
			if n == 0 {
				r.fail = true
				return ""
			}
			out = utf8.AppendRune(append(out, r.buf[start:i]...), ch)
			i += n
			start = i
		case c < 0x20:
			r.fail = true
			return ""
		case c < utf8.RuneSelf:
			i++
		default:
			ch, width := utf8.DecodeRune(r.buf[i:])
			if ch == utf8.RuneError && width == 1 {
				r.fail = true
				return ""
			}
			i += width
		}
	}
	r.fail = true
	return ""
}

// unescape resolves the escape at the start of b (b[0] is '\\') and
// returns the rune and the bytes consumed, or 0, 0.
func unescape(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\':
		return rune(b[1]), 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(b) < 6 || b[2] != '0' || b[3] != '0' {
			return 0, 0
		}
		hi, lo := unhex(b[4]), unhex(b[5])
		if hi < 0 || lo < 0 {
			return 0, 0
		}
		return rune(hi<<4 | lo), 6
	}
	return 0, 0
}

func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}

// Time consumes a quoted RFC 3339 time the way encoding/json reads a
// time.Time: the bytes between the quotes go, unescaped, to the parser
// encoding/json uses (time.Time.UnmarshalText and UnmarshalJSON share
// it). A backslash declines — encoding/json would hand the escape itself
// to the parser — and so does anything the parser refuses.
func (r *Reader) Time() time.Time {
	r.Expect(`"`)
	if r.fail {
		return time.Time{}
	}
	end := bytes.IndexByte(r.buf[r.pos:], '"')
	if end < 0 {
		r.fail = true
		return time.Time{}
	}
	raw := r.buf[r.pos : r.pos+end]
	var t time.Time
	if bytes.IndexByte(raw, '\\') >= 0 || t.UnmarshalText(raw) != nil {
		r.fail = true
		return time.Time{}
	}
	r.pos += end + 1
	return t
}
