// Package xmlx holds the append-style XML writers and the strict
// single-pass reader used by the hot wire messages (notification,
// detail, detail request and the per-request transport envelopes)
// instead of paying encoding/xml's reflection at every hop.
//
// The writers produce exactly the bytes encoding/xml produces for the
// same text. The reader understands only the canonical documents those
// writers emit — no whitespace between elements, no declaration,
// comment, processing instruction or namespace prefix, every attribute
// and element in its fixed order, CDATA only where a caller asks for it
// — and declines everything else, so that callers can fall back to
// encoding/xml, which stays the definition of what the platform accepts.
package xmlx

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// inCharRange reports whether r is in the XML 1.0 Char production, the
// test encoding/xml applies on both encode and decode.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// escapes holds the reference encoding/xml writes for each ASCII
// character it does not write as itself.
var escapes = [utf8.RuneSelf]string{'"': "&#34;", '\'': "&#39;", '&': "&amp;", '<': "&lt;", '>': "&gt;",
	'\t': "&#x9;", '\n': "&#xA;", '\r': "&#xD;"}

// plain reports whether c is an ASCII byte that stands for itself in
// both character data and attribute values.
func plain(c byte) bool { return c >= 0x20 && c < utf8.RuneSelf && escapes[c] == "" }

// AppendText appends s escaped as encoding/xml escapes character data
// and attribute values alike: &#34; &#39; &amp; &lt; &gt; &#x9; &#xA;
// &#xD;, and U+FFFD for invalid UTF-8 and for runes outside the XML
// Char range.
func AppendText(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if plain(s[i]) {
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		esc := "\uFFFD"
		if r < utf8.RuneSelf && escapes[r] != "" {
			esc = escapes[r]
		} else if inCharRange(r) && (r != utf8.RuneError || width > 1) {
			i += width
			continue
		}
		dst = append(append(dst, s[last:i]...), esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// AppendAttr appends ` name="value"` with the value escaped.
func AppendAttr(dst []byte, name, value string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, name...)
	dst = append(dst, '=', '"')
	dst = AppendText(dst, value)
	return append(dst, '"')
}

// AppendElem appends `<name>text</name>` with the text escaped.
func AppendElem(dst []byte, name, text string) []byte {
	dst = append(dst, '<')
	dst = append(dst, name...)
	dst = append(dst, '>')
	dst = AppendText(dst, text)
	dst = append(dst, '<', '/')
	dst = append(dst, name...)
	return append(dst, '>')
}

// Reader is a single forward pass over one canonical document. Every
// method is a no-op once the reader has declined; callers run the whole
// message through it and ask Done at the end.
type Reader struct {
	buf  []byte
	pos  int
	fail bool
}

// Decode runs read over data in one pass and returns its result when the
// reader consumed the whole document; when it declined, fallback — the
// caller's encoding/xml Unmarshal — decodes data into a fresh value.
func Decode[T any](data []byte, read func(*Reader, *T), fallback func([]byte, any) error) (*T, error) {
	v := new(T)
	r := Reader{buf: data}
	if read(&r, v); r.Done() {
		return v, nil
	}
	v = new(T)
	if err := fallback(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// Done reports whether the whole input was consumed without declining.
func (r *Reader) Done() bool { return !r.fail && r.pos == len(r.buf) }

// Decline abandons the pass: the document is outside the subset.
func (r *Reader) Decline() { r.fail = true }

func hasPrefix(b []byte, lit string) bool {
	return len(b) >= len(lit) && string(b[:len(lit)]) == lit
}

// Peek reports whether lit comes next, without consuming it.
func (r *Reader) Peek(lit string) bool { return !r.fail && hasPrefix(r.buf[r.pos:], lit) }

// Expect consumes lit, or declines when something else comes next.
func (r *Reader) Expect(lit string) {
	if r.Peek(lit) {
		r.pos += len(lit)
	} else {
		r.fail = true
	}
}

// Attr consumes ` name="value"` and returns the unescaped value.
func (r *Reader) Attr(name string) string {
	r.Expect(" ")
	r.Expect(name)
	r.Expect(`="`)
	v := r.Text('"')
	r.Expect(`"`)
	return string(v)
}

// Elem consumes `<name>text</name>` and returns the unescaped text.
func (r *Reader) Elem(name string) string { return string(r.ElemBytes(name)) }

// ElemBytes is Elem without the copy: the result aliases the input when
// the text holds no reference.
func (r *Reader) ElemBytes(name string) []byte {
	r.Expect("<")
	r.Expect(name)
	r.Expect(">")
	v := r.Text('<')
	r.Expect("</")
	r.Expect(name)
	r.Expect(">")
	return v
}

// Text consumes character data or an attribute value up to, not
// including, the end byte ('<' or '"') and returns it unescaped. It
// resolves the five named entities and decimal/hex character references
// and declines on a markup character that is not end, a control
// character (the writers escape tab, newline and carriage return),
// invalid UTF-8, a reference to a rune outside the XML Char range and
// on input that stops before end. The result aliases the input when no
// reference occurs.
func (r *Reader) Text(end byte) []byte {
	if r.fail {
		return nil
	}
	start := r.pos
	var out []byte // non-nil once a reference forced a copy
	for i := start; i < len(r.buf); {
		c := r.buf[i]
		switch {
		case c == end:
			r.pos = i
			if out != nil {
				return append(out, r.buf[start:i]...)
			}
			return r.buf[start:i]
		case plain(c):
			i++
		case c == '&':
			ref, n := reference(r.buf[i:])
			if n == 0 {
				r.fail = true
				return nil
			}
			if out == nil {
				// One allocation: the text ends at the next end byte,
				// which never occurs unescaped inside it.
				out = make([]byte, 0, i-start+max(0, bytes.IndexByte(r.buf[i:], end)))
			}
			out = append(out, r.buf[start:i]...)
			out = utf8.AppendRune(out, ref)
			i += n
			start = i
		case c >= utf8.RuneSelf:
			ch, width := utf8.DecodeRune(r.buf[i:])
			if ch == utf8.RuneError && width == 1 || !inCharRange(ch) {
				r.fail = true
				return nil
			}
			i += width
		default:
			r.fail = true
			return nil
		}
	}
	r.fail = true
	return nil
}

// CDATA consumes one CDATA section and returns its content, aliased to
// the input. It declines where encoding/xml would read the section
// differently or not at all: a carriage return (rewritten to a newline),
// another control character, invalid UTF-8, a rune outside the XML Char
// range, a section that never ends.
func (r *Reader) CDATA() []byte {
	r.Expect("<![CDATA[")
	if r.fail {
		return nil
	}
	end := bytes.Index(r.buf[r.pos:], []byte("]]>"))
	if end < 0 {
		r.fail = true
		return nil
	}
	text := r.buf[r.pos : r.pos+end]
	for i := 0; i < len(text); {
		if c := text[i]; c >= 0x20 && c < utf8.RuneSelf || c == '\t' || c == '\n' {
			i++
			continue
		}
		ch, width := utf8.DecodeRune(text[i:])
		if ch == '\r' || ch == utf8.RuneError && width == 1 || !inCharRange(ch) {
			r.fail = true
			return nil
		}
		i += width
	}
	r.pos += end + len("]]>")
	return text
}

// entities are the five references XML predefines.
var entities = [...]struct {
	name string
	r    rune
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}}

// reference parses the entity or character reference at the start of
// b (b[0] is '&') and returns the rune and the bytes consumed, or 0, 0.
func reference(b []byte) (rune, int) {
	for _, e := range entities {
		if hasPrefix(b, e.name) {
			return e.r, len(e.name)
		}
	}
	end := bytes.IndexByte(b[:min(len(b), 12)], ';')
	if end < 3 || b[1] != '#' {
		return 0, 0
	}
	digits, base := b[2:end], 10
	if digits[0] == 'x' {
		digits, base = digits[1:], 16
	}
	n, err := strconv.ParseUint(string(digits), base, 32)
	if err != nil || !inCharRange(rune(n)) {
		return 0, 0
	}
	return rune(n), end + 1
}
