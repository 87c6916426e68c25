//go:build !race

// The race detector inflates allocation counts.

package xmlx

import "testing"

// The text of an element aliases the input unless a reference forces a
// copy, and the copy is one allocation however many references occur.
func TestTextAllocations(t *testing.T) {
	plain := []byte(`<v>2010-05-30T09:00:00Z</v>`)
	refs := []byte(`<v>&lt;a&gt;&amp;&lt;b&gt;&amp;&lt;c&gt;&amp;&lt;d&gt;&amp;&lt;e&gt;&#34;&#xA;</v>`)
	for _, tc := range []struct {
		doc  []byte
		want float64
	}{{plain, 0}, {refs, 1}} {
		got := testing.AllocsPerRun(100, func() {
			r := Reader{buf: tc.doc}
			if r.ElemBytes("v"); !r.Done() {
				t.Fatal("declined")
			}
		})
		if got != tc.want {
			t.Errorf("%s: %v allocs, want %v", tc.doc, got, tc.want)
		}
	}
	// A CDATA section always aliases the input.
	cdata := []byte(`<![CDATA[<wire id="e"><summary>a &amp; b</summary></wire>]]>`)
	if got := testing.AllocsPerRun(100, func() {
		r := Reader{buf: cdata}
		if r.CDATA(); !r.Done() {
			t.Fatal("declined")
		}
	}); got != 0 {
		t.Errorf("CDATA: %v allocs, want 0", got)
	}
}
