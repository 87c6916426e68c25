package xmlx

import (
	"bytes"
	"encoding/xml"
	"errors"
	"testing"
	"testing/quick"
)

// AppendText must escape exactly as encoding/xml does, for any string.
func TestAppendTextMatchesEncodingXML(t *testing.T) {
	same := func(s string) bool {
		var ref bytes.Buffer
		if err := xml.EscapeText(&ref, []byte(s)); err != nil {
			return false
		}
		return string(AppendText([]byte("x"), s)) == "x"+ref.String()
	}
	for _, s := range []string{
		"", "plain", "\"'&<>\t\n\r", "é漢\U0001F600", "\xff", "a\xc3", "\x00\x01\x1f\x7f",
		"\uFFFD", "\uFFFE\uFFFF", "\xed\xa0\x80", "]]>", "&amp;",
	} {
		if !same(s) {
			t.Errorf("AppendText(%q) = %q differs from encoding/xml", s, AppendText(nil, s))
		}
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendElemAndAttr(t *testing.T) {
	got := AppendElem(AppendAttr([]byte("<a"), "k", `v"<`), "e", "1&2")
	if want := `<a k="v&#34;&lt;"<e>1&amp;2</e>`; string(got) != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

type pair struct{ K, V string }

func readPair(r *Reader, p *pair) {
	r.Expect("<p")
	if r.Peek(` k="`) {
		p.K = r.Attr("k")
	}
	r.Expect(">")
	p.V = r.Elem("v")
	r.Expect("</p>")
}

var errFallback = errors.New("fallback")

func TestReader(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		want *pair // nil: the reader declines
	}{
		{`<p k="a"><v>b</v></p>`, &pair{"a", "b"}},
		{`<p><v></v></p>`, &pair{"", ""}},
		{`<p k=""><v>é漢</v></p>`, &pair{"", "é漢"}},
		{`<p k="&#34;&#39;&amp;&lt;&gt;&#x9;&#xA;&#xD;"><v>&quot;&apos;&#65;&#x4a;&#x4A;</v></p>`, &pair{"\"'&<>\t\n\r", "\"'AJJ"}},
		{`<p><v>a&amp;b&amp;c</v></p>`, &pair{"", "a&b&c"}},
		{`<p><v>&#x10FFFF;</v></p>`, &pair{"", "\U0010FFFF"}},

		{``, nil},
		{`<p><v>b</v></p> `, nil},            // trailing bytes
		{` <p><v>b</v></p>`, nil},            // leading whitespace
		{`<p> <v>b</v></p>`, nil},            // inter-element whitespace
		{`<p><v>b</v>`, nil},                 // truncated
		{`<p><v>b`, nil},                     // text runs to the end of input
		{`<p k='a'><v>b</v></p>`, nil},       // single-quoted attribute
		{`<p j="a"><v>b</v></p>`, nil},       // unknown attribute
		{`<p k="a" k="a"><v>b</v></p>`, nil}, // repeated attribute
		{`<p><w>b</w></p>`, nil},             // unknown element
		{`<p><v>b</v><v>c</v></p>`, nil},     // repeated element
		{`<p><v/></p>`, nil},                 // self-closing
		{`<x:p><v>b</v></x:p>`, nil},         // namespace prefix
		{`<?xml version="1.0"?><p><v>b</v></p>`, nil},
		{`<p><v><![CDATA[b]]></v></p>`, nil},
		{`<p><v><!-- c -->b</v></p>`, nil},
		{`<p><v>a>b</v></p>`, nil},        // unescaped markup character
		{`<p><v>a"b</v></p>`, nil},        // the writers escape quotes everywhere
		{"<p><v>a\rb</v></p>", nil},       // encoding/xml would rewrite it to \n
		{"<p><v>a\nb</v></p>", nil},       // the writers escape it
		{"<p><v>\xff</v></p>", nil},       // invalid UTF-8
		{"<p><v>\uFFFE</v></p>", nil},     // outside Char
		{`<p><v>&#0;</v></p>`, nil},       // reference outside Char
		{`<p><v>&#xD800;</v></p>`, nil},   // surrogate
		{`<p><v>&#x110000;</v></p>`, nil}, // beyond Unicode
		{`<p><v>&#;</v></p>`, nil},
		{`<p><v>&#x;</v></p>`, nil},
		{`<p><v>&#12</v></p>`, nil},
		{`<p><v>&#1a;</v></p>`, nil},
		{`<p><v>&nbsp;</v></p>`, nil},
		{`<p><v>&amp</v></p>`, nil},
		{`<p><v>&</v></p>`, nil},
	} {
		got, err := Decode([]byte(tc.doc), readPair, func([]byte, any) error { return errFallback })
		switch {
		case tc.want == nil && err != errFallback:
			t.Errorf("%q: accepted as %+v, want a decline", tc.doc, got)
		case tc.want != nil && (err != nil || *got != *tc.want):
			t.Errorf("%q: got %+v, %v; want %+v", tc.doc, got, err, tc.want)
		}
	}
}

// cdataDoc is one element whose character data encoding/xml collects.
type cdataDoc struct {
	XMLName xml.Name `xml:"v"`
	Text    string   `xml:",chardata"`
}

func readCDATADoc(r *Reader, d *cdataDoc) {
	d.XMLName.Local = "v"
	r.Expect("<v>")
	d.Text = string(r.CDATA())
	r.Expect("</v>")
}

// CDATA returns what encoding/xml reads from a section, and declines
// wherever encoding/xml would read something else or nothing.
func TestCDATA(t *testing.T) {
	for _, tc := range []struct {
		doc    string
		accept bool
	}{
		{`<v><![CDATA[<wire id="e">a &amp; b</wire>]]></v>`, true},
		{`<v><![CDATA[]]></v>`, true},
		{`<v><![CDATA[]]]]></v>`, true}, // the first "]]>" ends it: "]]"
		{`<v><![CDATA[a]b]]c]]></v>`, true},
		{"<v><![CDATA[tab\tnewline\né漢\U0001F600]]></v>", true},

		{"<v><![CDATA[a\rb]]></v>", false},   // encoding/xml rewrites it to \n
		{"<v><![CDATA[a\r\nb]]></v>", false}, // likewise
		{"<v><![CDATA[\xff]]></v>", false},   // invalid UTF-8
		{"<v><![CDATA[\x01]]></v>", false},   // outside Char
		{"<v><![CDATA[\uFFFE]]></v>", false}, // outside Char
		{`<v><![CDATA[a</v>`, false},         // unterminated
		{`<v><![CDATA[a]]><![CDATA[b]]></v>`, false},
		{`<v>a<![CDATA[b]]></v>`, false},
		{`<v><![CDATA[a]]>b</v>`, false},
		{`<v><![cdata[a]]></v>`, false},
	} {
		got, err := Decode([]byte(tc.doc), readCDATADoc, func([]byte, any) error { return errFallback })
		if !tc.accept {
			if err != errFallback {
				t.Errorf("%q: accepted as %q, want a decline", tc.doc, got.Text)
			}
			continue
		}
		var ref cdataDoc
		if err := xml.Unmarshal([]byte(tc.doc), &ref); err != nil {
			t.Fatalf("%q: encoding/xml: %v", tc.doc, err)
		}
		if err != nil || *got != ref {
			t.Errorf("%q: got %+v, %v; encoding/xml reads %+v", tc.doc, got, err, ref)
		}
	}
}

// A declined pass leaves nothing behind: the fallback decodes into a
// fresh value, and its error is the caller's error.
func TestDecodeFallback(t *testing.T) {
	doc := []byte(`<p k="a"><v>b</v><extra/></p>`)
	got, err := Decode(doc, readPair, func(data []byte, v any) error {
		if p := v.(*pair); *p != (pair{}) || !bytes.Equal(data, doc) {
			t.Errorf("fallback got %+v, %q", p, data)
		}
		v.(*pair).V = "from fallback"
		return nil
	})
	if err != nil || *got != (pair{V: "from fallback"}) {
		t.Errorf("got %+v, %v", got, err)
	}
	if _, err := Decode(doc, readPair, func([]byte, any) error { return errFallback }); err != errFallback {
		t.Errorf("err = %v, want the fallback's", err)
	}
}
