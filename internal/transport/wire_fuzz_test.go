package transport

import (
	"bytes"
	"encoding/xml"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/xmlx"
)

// readInquiryResponse puts readInquiryDocs — the pass
// decodeInquiryResponse runs — into the struct encoding/xml fills, so
// the envelope tests can hold it to encoding/xml like every other
// reader.
func readInquiryResponse(r *xmlx.Reader, m *inquiryResponse) {
	m.XMLName.Local = "inquiryResponse"
	readInquiryDocs(r, func(doc []byte) { m.Notifications = append(m.Notifications, string(doc)) })
}

// envelopeAgrees is the differential property on one document and one
// envelope reader: if the reader accepts doc, encoding/xml accepts it
// with a deeply-equal value. It reports whether the reader accepted.
func envelopeAgrees[T any](t *testing.T, doc []byte, read func(*xmlx.Reader, *T)) bool {
	t.Helper()
	fast, err := xmlx.Decode(doc, read, func([]byte, any) error { return errors.New("declined") })
	if err != nil {
		return false
	}
	ref := new(T)
	if err := xml.Unmarshal(doc, ref); err != nil {
		t.Fatalf("reader accepted %q, encoding/xml rejects it: %v", doc, err)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("reader decoded %q to %+v, encoding/xml to %+v", doc, fast, ref)
	}
	return true
}

// The documents encoding/xml accepts and the readers must leave to it.
var envelopeDeclineSeeds = []string{
	"<getResponseRequest>\n  <sourceId>lab-900</sourceId>\n  <fields>\n    <field>hemoglobin</field>\n  </fields>\n</getResponseRequest>\n",
	`<?xml version="1.0"?><getResponseRequest><sourceId>s</sourceId><fields><field>a</field></fields></getResponseRequest>`,
	`<getResponseRequest><sourceId><![CDATA[s]]></sourceId><fields><field>a</field></fields></getResponseRequest>`,
	`<getResponseRequest><!-- c --><sourceId>s</sourceId><fields><field>a</field></fields></getResponseRequest>`,
	`<g:getResponseRequest xmlns:g="urn:css"><g:sourceId>s</g:sourceId></g:getResponseRequest>`,
	`<getResponseRequest><sourceId>s</sourceId></getResponseRequest>`,
	`<getResponseRequest><fields><field>a</field></fields><sourceId>s</sourceId></getResponseRequest>`,
	`<getResponseRequest><sourceId>&#0;</sourceId><fields></fields></getResponseRequest>`,
	`<inquiryRequest><actor>a</actor><limit> 5 </limit></inquiryRequest>`,
	`<inquiryRequest><actor>a</actor><limit></limit></inquiryRequest>`,
	`<inquiryRequest><personId>P</personId><actor>a</actor></inquiryRequest>`,
	"<inquiryResponse><notification><![CDATA[<wire id=\"e\">\r</wire>]]></notification></inquiryResponse>",
	`<publishResponse><eventId>e</eventId><extra/></publishResponse>`,
	`<fault code="c" mapVersion=" 7">m</fault>`,
	`<fault shard="1" code="c">m</fault>`,
	`<fault code="c">a<b/>c</fault>`,
	`<subscribeRequest><class>c.x</class><actor>a</actor><callback>u</callback></subscribeRequest>`,
	`<subscribeRequest><actor>a</actor><class>c.x</class><callback>u</callback><codec>xml</codec><codec>binary</codec></subscribeRequest>`,
	`<subscribeResponse> <id>s</id></subscribeResponse>`,
	// CDATA the inquiry reader leaves to encoding/xml: invalid UTF-8, a
	// rune outside Char, an unterminated section, two adjacent sections,
	// text beside a section, a section where no reader expects one.
	"<inquiryResponse><notification><![CDATA[<wire id=\"\xff\"></wire>]]></notification></inquiryResponse>",
	"<inquiryResponse><notification><![CDATA[<wire id=\"\x01\"></wire>]]></notification></inquiryResponse>",
	`<inquiryResponse><notification><![CDATA[<wire id="e"></wire></notification></inquiryResponse>`,
	`<inquiryResponse><notification><![CDATA[<wire id="e">]]><![CDATA[</wire>]]></notification></inquiryResponse>`,
	`<inquiryResponse><notification> <![CDATA[<wire id="e"></wire>]]></notification></inquiryResponse>`,
	`<publishResponse><eventId><![CDATA[e]]></eventId></publishResponse>`,
}

// fuzzNotification builds a notification from the fuzz input's parts,
// with a time anywhere in 1425-2514 and, by the input, a zone offset.
func fuzzNotification(p []string, num int) *event.Notification {
	at := time.Unix(int64(num%(1<<34)), int64(num%1e9)).UTC()
	if num%3 == 1 {
		at = at.In(time.FixedZone("", (num%28-14)*3600))
	}
	return &event.Notification{ID: event.GlobalID(p[0]), Trace: p[1], SourceID: event.SourceID(p[2]),
		Class: event.ClassID(p[3]), PersonID: p[4], Summary: p[5], OccurredAt: at, Producer: event.ProducerID(p[0]),
		PublishedAt: at.Add(time.Duration(num % 1e12))}
}

// Every decline document is left to encoding/xml by all seven readers.
func TestEnvelopeReaderDeclines(t *testing.T) {
	for _, doc := range envelopeDeclineSeeds {
		d := []byte(doc)
		if envelopeAgrees(t, d, readGetResponseRequest) || envelopeAgrees(t, d, readInquiryRequest) ||
			envelopeAgrees(t, d, readInquiryResponse) || envelopeAgrees(t, d, readPublishResponse) ||
			envelopeAgrees(t, d, readFault) || envelopeAgrees(t, d, readSubscribeRequest) ||
			envelopeAgrees(t, d, readSubscribeResponse) {
			t.Errorf("a reader accepted %q", doc)
		}
	}
}

// FuzzXMLEnvelopeDifferential runs the seven envelope readers against
// encoding/xml: whatever a reader accepts, encoding/xml accepts with a
// deeply-equal value; and whatever the encoders make of values built
// from the input, the readers accept. For the inquiry response it also
// holds the CDATA write path to its premise — no AppendNotification
// output contains "]]>" — and the client's decode to DecodeNotification.
func FuzzXMLEnvelopeDifferential(f *testing.F) {
	for _, doc := range envelopeDeclineSeeds {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`<getResponseRequest><sourceId>s</sourceId><fields><field>a</field><field>b</field></fields></getResponseRequest>`))
	f.Add([]byte(`<inquiryRequest><actor>a</actor><personId>P</personId><class>c.x</class><producer>p</producer><from>f</from><to>t</to><limit>-7</limit></inquiryRequest>`))
	f.Add([]byte(`<inquiryResponse><notification>&lt;wire id=&#34;e&#34;&gt;&lt;/wire&gt;</notification><notification></notification></inquiryResponse>`))
	f.Add([]byte(`<inquiryResponse><notification><![CDATA[<wire id="e"></wire>]]></notification></inquiryResponse>`))
	f.Add([]byte(`<inquiryResponse><notification><![CDATA[]]]]></notification><notification><![CDATA[]]></notification></inquiryResponse>`))
	f.Add([]byte(goldenTenXML))
	f.Add([]byte(`<publishResponse><eventId>evt-1</eventId></publishResponse>`))
	f.Add([]byte(`<fault code="wrong-shard" shard="2" mapVersion="9">m &amp; m</fault>`))
	f.Add([]byte(`<subscribeRequest><actor>a</actor><class>c.x</class><callback>http://cb/n?a=1&amp;b=2</callback><codec>binary</codec></subscribeRequest>`))
	f.Add([]byte(`<subscribeResponse><id>sub-1</id></subscribeResponse>`))
	f.Add([]byte("a\"b'|c&d<e>|\t\n\r|\xff\x01|é漢|x"))
	f.Fuzz(func(t *testing.T, in []byte) {
		envelopeAgrees(t, in, readGetResponseRequest)
		envelopeAgrees(t, in, readInquiryRequest)
		envelopeAgrees(t, in, readInquiryResponse)
		envelopeAgrees(t, in, readPublishResponse)
		envelopeAgrees(t, in, readFault)
		envelopeAgrees(t, in, readSubscribeRequest)
		envelopeAgrees(t, in, readSubscribeResponse)

		p := make([]string, 6)
		for i, part := range bytes.SplitN(in, []byte("|"), len(p)) {
			p[i] = string(part)
		}
		num := 0
		for _, c := range in {
			num = num*31 + int(c) - 64
		}
		get := &getResponseRequest{Source: event.SourceID(p[0])}
		for _, name := range p[1:] {
			if name != "" {
				get.Fields = append(get.Fields, event.FieldName(name))
			}
		}
		inq := &inquiryRequest{Actor: event.Actor(p[0]), PersonID: p[1], Class: event.ClassID(p[2]),
			Producer: event.ProducerID(p[3]), From: p[4], To: p[5], Limit: num}
		n := fuzzNotification(p, num)
		doc, err := event.AppendNotification(nil, n)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(doc, []byte("]]>")) {
			t.Fatalf("AppendNotification wrote %q, which cannot travel in one CDATA section", doc)
		}
		notes := make([]*event.Notification, len(in)%4)
		for i := range notes {
			notes[i] = n
		}
		resp, err := appendInquiryResponse(nil, notes)
		if err != nil {
			t.Fatal(err)
		}
		// The client decodes each notification as DecodeNotification
		// decodes its document alone.
		want, err := event.DecodeNotification(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeInquiryResponse(resp)
		if err != nil || len(got) != len(notes) {
			t.Fatalf("decodeInquiryResponse(%q) = %d notifications, %v; want %d", resp, len(got), err, len(notes))
		}
		for _, g := range got {
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("decodeInquiryResponse decoded %+v, DecodeNotification %+v", g, want)
			}
		}
		fault := &Fault{Code: p[0], Shard: p[1], MapVersion: uint64(num), Message: p[2]}
		for _, ok := range []bool{
			envelopeAgrees(t, get.appendXML(nil), readGetResponseRequest),
			envelopeAgrees(t, inq.appendXML(nil), readInquiryRequest),
			envelopeAgrees(t, resp, readInquiryResponse),
			envelopeAgrees(t, (&publishResponse{EventID: event.GlobalID(p[0])}).appendXML(nil), readPublishResponse),
			envelopeAgrees(t, fault.appendXML(nil), readFault),
			envelopeAgrees(t, (&subscribeRequest{Actor: event.Actor(p[0]), Class: event.ClassID(p[1]), Callback: p[2], Codec: p[3]}).appendXML(nil), readSubscribeRequest),
			envelopeAgrees(t, (&subscribeResponse{ID: p[0]}).appendXML(nil), readSubscribeResponse),
		} {
			if !ok {
				t.Fatalf("a reader declined its encoder's own output for %q", in)
			}
		}
	})
}
