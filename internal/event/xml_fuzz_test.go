package event

import (
	"bytes"
	"encoding/xml"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/xmlx"
)

// Differential tests of the single-pass XML reader against
// encoding/xml, which defines what the platform accepts. Two
// properties, for every message: whatever the reader accepts,
// encoding/xml accepts with a deeply-equal value; and whatever the
// encoders emit, the reader accepts — the fallback must never become
// the silent permanent path for our own output.

var errDeclined = errors.New("reader declined")

func declined([]byte, any) error { return errDeclined }

// xmlAgrees is the first property on one document: if the reader
// accepts doc, so does encoding/xml, with a deeply-equal value. It
// reports whether the reader accepted.
func xmlAgrees[T any](t *testing.T, doc []byte, read func(*xmlx.Reader, *T)) bool {
	t.Helper()
	fast, err := xmlx.Decode(doc, read, declined)
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

// xmlDiff checks both properties for one message type: in is the fuzz
// input, v a value built from it.
func xmlDiff[T any](t *testing.T, in []byte, read func(*xmlx.Reader, *T), v *T, encode func(*T) ([]byte, error)) {
	t.Helper()
	xmlAgrees(t, in, read)
	enc, err := encode(v)
	if err != nil {
		return // a time with no RFC 3339 form
	}
	if !xmlAgrees(t, enc, read) {
		t.Fatalf("reader declined the encoder's own output %q", enc)
	}
}

// chop cuts the fuzz input into n strings at '|' (missing ones empty),
// so one corpus entry drives every field of a generated value.
func chop(in []byte, n int) []string {
	out := make([]string, n)
	for i, part := range bytes.SplitN(in, []byte("|"), n) {
		out[i] = string(part)
	}
	return out
}

// fuzzTime derives an instant (years 1970-2170, a zone within ±14 h)
// from a string.
func fuzzTime(s string) time.Time {
	var sec, zone int64
	for i := 0; i < len(s); i++ {
		sec = sec*131 + int64(s[i])
		zone += int64(s[i])
	}
	sec %= 200 * 365 * 86400
	t := time.Unix(max(sec, -sec), sec%1e9)
	if zone%3 == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("", int(zone%(28*60)-14*60)*60))
}

// The documents encoding/xml accepts and the reader must leave to it.
var xmlDeclineSeeds = map[string][]string{
	"detail": {
		"<eventDetails sourceId=\"s\" class=\"c.x\" producer=\"p\">\n  <field name=\"a\">1</field>\n</eventDetails>\n",
		`<?xml version="1.0"?><eventDetails sourceId="s" class="c.x" producer="p"><field name="a">1</field></eventDetails>`,
		`<eventDetails sourceId="s" class="c.x" producer="p"><field name="a"><![CDATA[1<2]]></field></eventDetails>`,
		`<eventDetails sourceId="s" class="c.x" producer="p"><!-- lab --><field name="a">1</field></eventDetails>`,
		`<e:eventDetails xmlns:e="urn:css" sourceId="s" class="c.x" producer="p"><e:field name="a">1</e:field></e:eventDetails>`,
		`<eventDetails sourceId="s" class="c.x" producer="p"><field name="a">1</field><field name="a">2</field></eventDetails>`,
		`<eventDetails class="c.x" sourceId="s" producer="p" extra="x"><field name="a">1</field></eventDetails>`,
		`<eventDetails sourceId="s" class="c.x" producer="p"><field name="a">&#0;</field></eventDetails>`,
		`<eventDetails sourceId='s' class="c.x" producer="p"><field name="a">x > y</field></eventDetails>`,
	},
	"notification": {
		"<notification sourceId=\"lab-777\">\n <class>hospital.blood-test</class>\n <personId>PRS-0042</personId>\n <occurredAt>2026-08-05T10:00:00Z</occurredAt>\n <producer>hospital-s-maria</producer>\n</notification>",
		`<?xml version="1.0"?><wire id="e"><class>c.x</class><personId>P</personId><summary>s</summary><occurredAt>2026-08-05T10:00:00Z</occurredAt><producer>p</producer><publishedAt>2026-08-05T10:00:00Z</publishedAt></wire>`,
		`<wire id="e"><class>c.x</class><personId>P</personId><summary><![CDATA[a<b]]></summary><occurredAt>2026-08-05T10:00:00Z</occurredAt><producer>p</producer><publishedAt>2026-08-05T10:00:00Z</publishedAt></wire>`,
		`<wire id="e"><class>c.x</class><!-- who --><personId>P</personId><summary>s</summary><occurredAt>2026-08-05T10:00:00Z</occurredAt><producer>p</producer><publishedAt>2026-08-05T10:00:00Z</publishedAt></wire>`,
		`<n:wire xmlns:n="urn:css" id="e"><n:class>c.x</n:class><n:personId>P</n:personId><n:summary>s</n:summary><n:occurredAt>2026-08-05T10:00:00Z</n:occurredAt><n:producer>p</n:producer><n:publishedAt>2026-08-05T10:00:00Z</n:publishedAt></n:wire>`,
		`<wire id="e"><personId>P</personId><class>c.x</class><summary>s</summary><occurredAt>2026-08-05T10:00:00Z</occurredAt><producer>p</producer><publishedAt>2026-08-05T10:00:00Z</publishedAt></wire>`,
		`<wire id="e"><class>c.x</class><personId>&#0;</personId><summary>s</summary><occurredAt>2026-08-05T10:00:00Z</occurredAt><producer>p</producer><publishedAt>2026-08-05T10:00:00Z</publishedAt></wire>`,
		`<wire id="e"><class>c.x</class><personId>P</personId><summary>s</summary><occurredAt>2026-08-05T10:00:00Z</occurredAt><producer>p</producer></wire>`,
	},
	"detailRequest": {
		"<detailRequest trace=\"feedbeefcafe0001\">\n <requester>family-doctor</requester>\n <class>hospital.blood-test</class>\n <eventId>evt-1</eventId>\n <purpose>healthcare-treatment</purpose>\n</detailRequest>",
		`<?xml version="1.0"?><DetailRequest><requester>a</requester><class>c.x</class><eventId>e</eventId><purpose>care</purpose><at>2026-08-05T10:00:00Z</at></DetailRequest>`,
		`<DetailRequest><requester><![CDATA[a]]></requester><class>c.x</class><eventId>e</eventId><purpose>care</purpose><at>2026-08-05T10:00:00Z</at></DetailRequest>`,
		`<DetailRequest><!-- who --><requester>a</requester><class>c.x</class><eventId>e</eventId><purpose>care</purpose><at>2026-08-05T10:00:00Z</at></DetailRequest>`,
		`<r:DetailRequest xmlns:r="urn:css"><r:requester>a</r:requester><r:class>c.x</r:class><r:eventId>e</r:eventId><r:purpose>care</r:purpose></r:DetailRequest>`,
		`<DetailRequest><requester>a</requester><class>c.x</class><eventId>e</eventId><purpose>care</purpose></DetailRequest>`,
		`<DetailRequest><requester>&#0;</requester><class>c.x</class><eventId>e</eventId><purpose>care</purpose><at>2026-08-05T10:00:00Z</at></DetailRequest>`,
	},
}

// Every decline document is left to encoding/xml, and the public
// decoder answers exactly what encoding/xml answers: the same value, or
// an error where it errs (the &#0; documents).
func TestXMLReaderDeclines(t *testing.T) {
	check := func(t *testing.T, doc string, fastErr error, got any, gotErr error, ref any) {
		t.Helper()
		if fastErr == nil {
			t.Errorf("reader accepted %q", doc)
		}
		refErr := xml.Unmarshal([]byte(doc), ref)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("%q: decoder err %v, encoding/xml err %v", doc, gotErr, refErr)
		}
		if refErr == nil && !reflect.DeepEqual(got, ref) {
			t.Errorf("%q decoded to %+v, encoding/xml decodes %+v", doc, got, ref)
		}
	}
	for _, doc := range xmlDeclineSeeds["detail"] {
		_, fastErr := xmlx.Decode([]byte(doc), readDetail, declined)
		got, err := DecodeDetail([]byte(doc))
		check(t, doc, fastErr, got, err, new(Detail))
	}
	for _, doc := range xmlDeclineSeeds["notification"] {
		_, fastErr := xmlx.Decode([]byte(doc), readNotification, declined)
		got, err := DecodeNotification([]byte(doc))
		check(t, doc, fastErr, got, err, new(Notification))
	}
	for _, doc := range xmlDeclineSeeds["detailRequest"] {
		_, fastErr := xmlx.Decode([]byte(doc), readDetailRequest, declined)
		got, err := DecodeDetailRequest([]byte(doc))
		check(t, doc, fastErr, got, err, new(DetailRequest))
	}
}

func FuzzXMLDetailDifferential(f *testing.F) {
	for _, doc := range xmlDeclineSeeds["detail"] {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`<eventDetails sourceId="s" class="c.x" producer="p"><field name="a">1</field><field name="b">&lt;&#34;&#xA;</field></eventDetails>`))
	f.Add([]byte(`<eventDetails sourceId="s" class="c.x" producer="p"><field name="b">1</field><field name="a">2</field></eventDetails>`))
	f.Add([]byte("src|c.x|prod|name|va\"l'u&e<>\t\n\r\xff\x01|b||é漢"))
	f.Fuzz(func(t *testing.T, in []byte) {
		p := chop(in, 9)
		d := NewDetail(ClassID(p[1]), SourceID(p[0]), ProducerID(p[2]))
		onWire := map[string]bool{}
		for i := 3; i+1 < len(p); i += 2 {
			// Names that differ only in bytes the encoder replaces with
			// U+FFFD are one name on the wire: the reader rightly
			// declines the repeat, so generate none.
			if esc := string(xmlx.AppendText(nil, p[i])); !onWire[esc] {
				onWire[esc] = true
				d.Set(FieldName(p[i]), p[i+1])
			}
		}
		xmlDiff(t, in, readDetail, d, EncodeDetail)
	})
}

func FuzzXMLNotificationDifferential(f *testing.F) {
	for _, doc := range xmlDeclineSeeds["notification"] {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`<wire id="e" trace="t" sourceId="s"><class>c.x</class><personId>P</personId><summary>a &amp; b</summary><occurredAt>2026-08-05T10:00:00.5+02:00</occurredAt><producer>p</producer><publishedAt>0001-01-01T00:00:00Z</publishedAt></wire>`))
	f.Add([]byte("evt-1|trace|src|c.x|PRS-1|su\"m'm&a<r>y\t\n\r\xff\x01|when|prod|then"))
	f.Fuzz(func(t *testing.T, in []byte) {
		p := chop(in, 9)
		n := &Notification{ID: GlobalID(p[0]), Trace: p[1], SourceID: SourceID(p[2]), Class: ClassID(p[3]),
			PersonID: p[4], Summary: p[5], OccurredAt: fuzzTime(p[6]), Producer: ProducerID(p[7])}
		if p[8] != "" {
			n.PublishedAt = fuzzTime(p[8])
		}
		xmlDiff(t, in, readNotification, n, EncodeNotification)
	})
}

func FuzzXMLDetailRequestDifferential(f *testing.F) {
	for _, doc := range xmlDeclineSeeds["detailRequest"] {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`<DetailRequest trace="t"><requester>a/b</requester><class>c.x</class><eventId>e</eventId><purpose>care</purpose><at>0001-01-01T00:00:00Z</at></DetailRequest>`))
	f.Add([]byte("org/doc|c.x|evt-1|ca\"r'e&<>\t\n\r\xff\x01|when|trace"))
	f.Fuzz(func(t *testing.T, in []byte) {
		p := chop(in, 6)
		r := &DetailRequest{Requester: Actor(p[0]), Class: ClassID(p[1]), EventID: GlobalID(p[2]),
			Purpose: Purpose(p[3]), Trace: p[5]}
		if p[4] != "" {
			r.At = fuzzTime(p[4])
		}
		xmlDiff(t, in, readDetailRequest, r, EncodeDetailRequest)
	})
}
