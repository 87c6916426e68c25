package transport

import (
	"encoding/xml"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/xmlx"
)

// The golden table pins the XML form of the seven envelopes with
// append-style encoders (the five the detail and publish paths put on
// the wire per request, and the subscribe pair), byte for byte: each
// row's production encoding must equal the committed literal and what
// encoding/xml makes of the same struct, and the literal must decode
// to what encoding/xml decodes it to. The inquiry response is the one
// exception on the middle point: its notifications travel as CDATA,
// where encoding/xml writes them escaped.

// goldenEncode is the production encoding of an envelope: the response
// writer where it is one of the four negotiated ones, the append-style
// encoder otherwise.
func goldenEncode(t *testing.T, msg any) []byte {
	t.Helper()
	if m, ok := msg.(envelope); ok {
		rec := httptest.NewRecorder()
		writeEnvelope(rec, event.XML, http.StatusOK, m)
		return rec.Body.Bytes()
	}
	return msg.(interface{ appendXML([]byte) []byte }).appendXML(nil)
}

// goldenDecode is the production decoding of an envelope, and requires
// that the single-pass reader took it: a golden literal is the
// encoders' own output, which must never need the encoding/xml
// fallback.
func goldenDecode(t *testing.T, data []byte, msg any) any {
	t.Helper()
	declined := func([]byte, any) error { return errors.New("the reader declined") }
	var out any
	var err error
	switch msg.(type) {
	case *getResponseRequest:
		out, err = xmlx.Decode(data, readGetResponseRequest, declined)
	case *inquiryRequest:
		out, err = xmlx.Decode(data, readInquiryRequest, declined)
	case *inquiryResponse:
		out, err = xmlx.Decode(data, readInquiryResponse, declined)
	case *publishResponse:
		out, err = xmlx.Decode(data, readPublishResponse, declined)
	case *Fault:
		out, err = xmlx.Decode(data, readFault, declined)
	case *subscribeRequest:
		out, err = xmlx.Decode(data, readSubscribeRequest, declined)
	case *subscribeResponse:
		out, err = xmlx.Decode(data, readSubscribeResponse, declined)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

const goldenNasty = "q\" a' & < > t\t n\n r\r é漢 \xff \x01."

const goldenNastyXML = `q&#34; a&#39; &amp; &lt; &gt; t&#x9; n&#xA; r&#xD; é漢 ` + goldenNastyTail

// goldenNastyTail is what becomes of goldenNasty's invalid UTF-8 and
// U+0001: a replacement character each.
const goldenNastyTail = "\uFFFD \uFFFD."

// The inquiry response carries each nested notification document as one
// CDATA section. Servers before that sent the same documents escaped
// (the parent* literals, what encoding/xml writes for inquiryResponse);
// the XML infoset is the same, so encoding/xml — a parent client's
// fallback — decodes both forms to the same strings.
var (
	goldenPlain = &event.Notification{ID: "evt-1", Trace: "t1", Class: "c.x", PersonID: "P", Summary: "s",
		OccurredAt: time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC), Producer: "p",
		PublishedAt: time.Date(2026, 8, 5, 10, 0, 0, 1000000, time.UTC)}
	goldenNastyNote = &event.Notification{ID: "evt-2", Class: "c.x", PersonID: "P", Summary: goldenNasty, Producer: "p"}
	// goldenTen is the ten-result window: the nasty notification, then
	// nine plain ones.
	goldenTen = []*event.Notification{goldenNastyNote, goldenPlain, goldenPlain, goldenPlain, goldenPlain,
		goldenPlain, goldenPlain, goldenPlain, goldenPlain, goldenPlain}
)

const (
	goldenPlainXML   = `<notification><![CDATA[<wire id="evt-1" trace="t1"><class>c.x</class><personId>P</personId><summary>s</summary><occurredAt>2026-08-05T10:00:00Z</occurredAt><producer>p</producer><publishedAt>2026-08-05T10:00:00.001Z</publishedAt></wire>]]></notification>`
	goldenNastyCDATA = `<notification><![CDATA[<wire id="evt-2"><class>c.x</class><personId>P</personId><summary>` + goldenNastyXML + `</summary><occurredAt>0001-01-01T00:00:00Z</occurredAt><producer>p</producer><publishedAt>0001-01-01T00:00:00Z</publishedAt></wire>]]></notification>`

	parentPlainXML = `<notification>&lt;wire id=&#34;evt-1&#34; trace=&#34;t1&#34;&gt;&lt;class&gt;c.x&lt;/class&gt;&lt;personId&gt;P&lt;/personId&gt;&lt;summary&gt;s&lt;/summary&gt;&lt;occurredAt&gt;2026-08-05T10:00:00Z&lt;/occurredAt&gt;&lt;producer&gt;p&lt;/producer&gt;&lt;publishedAt&gt;2026-08-05T10:00:00.001Z&lt;/publishedAt&gt;&lt;/wire&gt;</notification>`
	// The second escaping leaves U+FFFD as it is, so goldenNastyXML's
	// tail carries over.
	parentNastyXML = `<notification>&lt;wire id=&#34;evt-2&#34;&gt;&lt;class&gt;c.x&lt;/class&gt;&lt;personId&gt;P&lt;/personId&gt;&lt;summary&gt;q&amp;#34; a&amp;#39; &amp;amp; &amp;lt; &amp;gt; t&amp;#x9; n&amp;#xA; r&amp;#xD; é漢 ` + goldenNastyTail + `&lt;/summary&gt;&lt;occurredAt&gt;0001-01-01T00:00:00Z&lt;/occurredAt&gt;&lt;producer&gt;p&lt;/producer&gt;&lt;publishedAt&gt;0001-01-01T00:00:00Z&lt;/publishedAt&gt;&lt;/wire&gt;</notification>`
)

var (
	goldenTenXML = `<inquiryResponse>` + goldenNastyCDATA + strings.Repeat(goldenPlainXML, 9) + `</inquiryResponse>`
	parentTenXML = `<inquiryResponse>` + parentNastyXML + strings.Repeat(parentPlainXML, 9) + `</inquiryResponse>`
)

func TestGoldenEnvelopeXML(t *testing.T) {
	for _, tc := range []struct {
		name         string
		notes        []*event.Notification
		want, parent string
	}{
		{"inquiry response, no results", nil,
			`<inquiryResponse></inquiryResponse>`, `<inquiryResponse></inquiryResponse>`},
		{"inquiry response, ten results", goldenTen, goldenTenXML, parentTenXML},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := appendInquiryResponse(nil, tc.notes)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("encoded\n %s\nwant\n %s", got, tc.want)
			}
			var docs []string
			for _, n := range tc.notes {
				data, err := event.EncodeNotification(n)
				if err != nil {
					t.Fatal(err)
				}
				docs = append(docs, string(data))
			}
			// encoding/xml writes the parent's escaped bytes for the same
			// documents, and reads both forms as those documents.
			ref, err := xml.Marshal(&inquiryResponse{Notifications: docs})
			if err != nil {
				t.Fatal(err)
			}
			if string(ref) != tc.parent {
				t.Errorf("encoding/xml reference\n %s\nwant\n %s", ref, tc.parent)
			}
			for _, form := range []string{tc.want, tc.parent} {
				var m inquiryResponse
				if err := xml.Unmarshal([]byte(form), &m); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(m.Notifications, docs) {
					t.Errorf("encoding/xml decodes %.60q… to %q, want %q", form, m.Notifications, docs)
				}
				if got := goldenDecode(t, []byte(form), &m); !reflect.DeepEqual(got, &m) {
					t.Errorf("decoded %+v, encoding/xml decodes %+v", got, &m)
				}
			}
		})
	}

	for _, tc := range []struct {
		name string
		msg  any
		want string
	}{
		{"get-response, no fields: <fields> stays, empty",
			&getResponseRequest{Source: "src-1"},
			`<getResponseRequest><sourceId>src-1</sourceId><fields></fields></getResponseRequest>`},
		{"get-response, one field",
			&getResponseRequest{Source: "src-1", Fields: []event.FieldName{"hemoglobin"}},
			`<getResponseRequest><sourceId>src-1</sourceId><fields><field>hemoglobin</field></fields></getResponseRequest>`},
		{"get-response, fields in request order",
			&getResponseRequest{Source: "hospital-src-00000012", Fields: []event.FieldName{"patient-id", "hemoglobin", "exam-date"}},
			`<getResponseRequest><sourceId>hospital-src-00000012</sourceId><fields><field>patient-id</field><field>hemoglobin</field><field>exam-date</field></fields></getResponseRequest>`},
		{"get-response, every escaped character",
			&getResponseRequest{Source: goldenNasty, Fields: []event.FieldName{goldenNasty, ""}},
			`<getResponseRequest><sourceId>` + goldenNastyXML + `</sourceId><fields><field>` + goldenNastyXML + `</field><field></field></fields></getResponseRequest>`},

		{"inquiry, actor only",
			&inquiryRequest{Actor: "family-doctor"},
			`<inquiryRequest><actor>family-doctor</actor></inquiryRequest>`},
		{"inquiry, every selector",
			&inquiryRequest{Actor: "org/dept/doc", PersonID: "PRS-0042", Class: "hospital.blood-test", Producer: "hospital-s-maria",
				From: "2010-05-01T00:00:00Z", To: "2010-06-01T00:00:00.5Z", Limit: 25},
			`<inquiryRequest><actor>org/dept/doc</actor><personId>PRS-0042</personId><class>hospital.blood-test</class><producer>hospital-s-maria</producer><from>2010-05-01T00:00:00Z</from><to>2010-06-01T00:00:00.5Z</to><limit>25</limit></inquiryRequest>`},
		{"inquiry, person and negative limit",
			&inquiryRequest{Actor: "a", PersonID: "P", Limit: -3},
			`<inquiryRequest><actor>a</actor><personId>P</personId><limit>-3</limit></inquiryRequest>`},
		{"inquiry, every escaped character",
			&inquiryRequest{Actor: goldenNasty, PersonID: goldenNasty, To: goldenNasty},
			`<inquiryRequest><actor>` + goldenNastyXML + `</actor><personId>` + goldenNastyXML + `</personId><to>` + goldenNastyXML + `</to></inquiryRequest>`},

		{"publish response",
			&publishResponse{EventID: "evt-0000000042"},
			`<publishResponse><eventId>evt-0000000042</eventId></publishResponse>`},
		{"publish response, parked in the outbox: empty id",
			&publishResponse{},
			`<publishResponse><eventId></eventId></publishResponse>`},
		{"publish response, every escaped character",
			&publishResponse{EventID: goldenNasty},
			`<publishResponse><eventId>` + goldenNastyXML + `</eventId></publishResponse>`},

		{"fault",
			&Fault{Code: CodeAccessDenied, Message: "enforcer: access denied: no policy permits family-doctor"},
			`<fault code="access-denied">enforcer: access denied: no policy permits family-doctor</fault>`},
		{"fault with the shard redirect pair",
			&Fault{Code: CodeWrongShard, Shard: "2", MapVersion: 18446744073709551615, Message: "cluster: wrong shard"},
			`<fault code="wrong-shard" shard="2" mapVersion="18446744073709551615">cluster: wrong shard</fault>`},
		{"fault, shard 0 at map version 0: the version is omitted",
			&Fault{Code: CodeNotPrimary, Shard: "0", Message: "m"},
			`<fault code="not-primary" shard="0">m</fault>`},
		{"fault, empty message",
			&Fault{Code: CodeInternal},
			`<fault code="internal"></fault>`},
		{"fault, every escaped character",
			&Fault{Code: goldenNasty, Shard: goldenNasty, MapVersion: 7, Message: goldenNasty},
			`<fault code="` + goldenNastyXML + `" shard="` + goldenNastyXML + `" mapVersion="7">` + goldenNastyXML + `</fault>`},

		{"subscribe request, default callback codec: <codec> is omitted",
			&subscribeRequest{Actor: "family-doctor", Class: "hospital.blood-test", Callback: "http://cb.example/n"},
			`<subscribeRequest><actor>family-doctor</actor><class>hospital.blood-test</class><callback>http://cb.example/n</callback></subscribeRequest>`},
		{"subscribe request, binary callbacks",
			&subscribeRequest{Actor: "org/dept/doc", Class: "c.x", Callback: "http://consumer:9/cb?a=1&b=2", Codec: "binary"},
			`<subscribeRequest><actor>org/dept/doc</actor><class>c.x</class><callback>http://consumer:9/cb?a=1&amp;b=2</callback><codec>binary</codec></subscribeRequest>`},
		{"subscribe request, every escaped character",
			&subscribeRequest{Actor: goldenNasty, Class: goldenNasty, Callback: goldenNasty, Codec: goldenNasty},
			`<subscribeRequest><actor>` + goldenNastyXML + `</actor><class>` + goldenNastyXML + `</class><callback>` + goldenNastyXML + `</callback><codec>` + goldenNastyXML + `</codec></subscribeRequest>`},
		{"subscribe response",
			&subscribeResponse{ID: "sub-000007"},
			`<subscribeResponse><id>sub-000007</id></subscribeResponse>`},
		{"subscribe response, every escaped character",
			&subscribeResponse{ID: goldenNasty},
			`<subscribeResponse><id>` + goldenNastyXML + `</id></subscribeResponse>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenEncode(t, tc.msg); string(got) != tc.want {
				t.Errorf("encoded\n %s\nwant\n %s", got, tc.want)
			}
			ref, err := xml.Marshal(tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			if string(ref) != tc.want {
				t.Errorf("encoding/xml reference\n %s\nwant\n %s", ref, tc.want)
			}
			want := reflect.New(reflect.TypeOf(tc.msg).Elem()).Interface()
			if err := xml.Unmarshal([]byte(tc.want), want); err != nil {
				t.Fatal(err)
			}
			if got := goldenDecode(t, []byte(tc.want), tc.msg); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded %+v, encoding/xml decodes %+v", got, want)
			}
		})
	}
}
