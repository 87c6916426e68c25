package event

import (
	"encoding/xml"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"
)

// The golden tables pin the XML wire form of the three event messages
// byte for byte. Each row's encoder output must equal the committed
// literal and the output of encoding/xml on a reference struct that
// lives only in this file, and the literal must decode to what
// encoding/xml decodes it to — through the single-pass reader, not the
// fallback. Two accidents are wire format by now and
// are pinned with the rest: the notification root element is <wire>,
// and a detail request always carries <at>, zero or not.

// goldenNasty holds every character class the escaper treats specially:
// the five markup characters, the three escaped whitespace characters,
// multi-byte runes, one invalid UTF-8 byte and one control character
// outside the XML Char range.
const goldenNasty = "q\" a' & < > t\t n\n r\r é漢 \xff \x01."

const goldenNastyXML = `q&#34; a&#39; &amp; &lt; &gt; t&#x9; n&#xA; r&#xD; é漢 ` + "\uFFFD \uFFFD."

// refNotification is the encoding/xml reference of EncodeNotification:
// the Notification struct tags under the local type name `wire`.
func refNotification(n *Notification) ([]byte, error) {
	type wire Notification
	return xml.Marshal((*wire)(n))
}

// refDetail is the encoding/xml reference of EncodeDetail: attributes,
// then name-sorted <field> elements.
func refDetail(d *Detail) ([]byte, error) {
	type field struct {
		Name  FieldName `xml:"name,attr"`
		Value string    `xml:",chardata"`
	}
	w := struct {
		XMLName  xml.Name   `xml:"eventDetails"`
		SourceID SourceID   `xml:"sourceId,attr"`
		Class    ClassID    `xml:"class,attr"`
		Producer ProducerID `xml:"producer,attr"`
		Fields   []field    `xml:"field"`
	}{SourceID: d.SourceID, Class: d.Class, Producer: d.Producer}
	for name, value := range d.Fields {
		w.Fields = append(w.Fields, field{name, value})
	}
	sort.Slice(w.Fields, func(i, j int) bool { return w.Fields[i].Name < w.Fields[j].Name })
	return xml.Marshal(w)
}

func goldenCheck(t *testing.T, got []byte, err error, ref []byte, refErr error, want string) {
	t.Helper()
	if err != nil || refErr != nil {
		t.Fatalf("encode: %v, reference: %v", err, refErr)
	}
	if string(got) != want {
		t.Errorf("encoded\n %s\nwant\n %s", got, want)
	}
	if string(ref) != want {
		t.Errorf("encoding/xml reference\n %s\nwant\n %s", ref, want)
	}
}

func TestGoldenNotificationXML(t *testing.T) {
	cet := time.FixedZone("", 2*3600)
	for _, tc := range []struct {
		name string
		n    Notification
		want string
	}{
		{"zero value", Notification{},
			`<wire id=""><class></class><personId></personId><summary></summary><occurredAt>0001-01-01T00:00:00Z</occurredAt><producer></producer><publishedAt>0001-01-01T00:00:00Z</publishedAt></wire>`},
		{"published, trace and source id set, nanosecond times",
			Notification{ID: "evt-0000000042", Trace: "feedbeefcafe0001", SourceID: "lab-777",
				Class: "hospital.blood-test", PersonID: "PRS-0042", Summary: "blood test for Mario Rossi",
				OccurredAt:  time.Date(2010, 5, 30, 9, 0, 0, 123456789, time.UTC),
				Producer:    "hospital-s-maria",
				PublishedAt: time.Date(2010, 5, 30, 11, 0, 1, 500, cet)},
			`<wire id="evt-0000000042" trace="feedbeefcafe0001" sourceId="lab-777"><class>hospital.blood-test</class><personId>PRS-0042</personId><summary>blood test for Mario Rossi</summary><occurredAt>2010-05-30T09:00:00.123456789Z</occurredAt><producer>hospital-s-maria</producer><publishedAt>2010-05-30T11:00:01.0000005+02:00</publishedAt></wire>`},
		{"redacted for delivery: trace set, source id empty",
			Notification{ID: "evt-1", Trace: "t1", Class: "c.x", PersonID: "P", Summary: "s",
				OccurredAt: time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC), Producer: "p",
				PublishedAt: time.Date(2026, 8, 5, 10, 0, 0, 1000000, time.UTC)},
			`<wire id="evt-1" trace="t1"><class>c.x</class><personId>P</personId><summary>s</summary><occurredAt>2026-08-05T10:00:00Z</occurredAt><producer>p</producer><publishedAt>2026-08-05T10:00:00.001Z</publishedAt></wire>`},
		{"every escaped character, in attributes and in character data",
			Notification{ID: goldenNasty, SourceID: goldenNasty, Class: "c.x", PersonID: goldenNasty,
				Summary: goldenNasty, Producer: "p"},
			`<wire id="` + goldenNastyXML + `" sourceId="` + goldenNastyXML + `"><class>c.x</class><personId>` + goldenNastyXML + `</personId><summary>` + goldenNastyXML + `</summary><occurredAt>0001-01-01T00:00:00Z</occurredAt><producer>p</producer><publishedAt>0001-01-01T00:00:00Z</publishedAt></wire>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := EncodeNotification(&tc.n)
			ref, refErr := refNotification(&tc.n)
			goldenCheck(t, got, err, ref, refErr, tc.want)

			type wire Notification
			var w wire
			if err := xml.Unmarshal([]byte(tc.want), &w); err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeNotification([]byte(tc.want))
			if err != nil {
				t.Fatal(err)
			}
			if want := Notification(w); !reflect.DeepEqual(*dec, want) {
				t.Errorf("decoded %+v, encoding/xml decodes %+v", *dec, want)
			}
			if !xmlAgrees(t, []byte(tc.want), readNotification) {
				t.Error("the reader declined the encoder's own output")
			}
		})
	}
}

func TestGoldenDetailXML(t *testing.T) {
	twelve := NewDetail("hospital.blood-test", "hospital-src-00000012", "hospital")
	for i := 12; i >= 1; i-- { // inserted in reverse: the wire form is name-sorted
		twelve.Set(FieldName("f"+strconv.Itoa(100+i)), "v"+strconv.Itoa(i))
	}
	twelve.Set("f107", "") // a filtered-to-empty value keeps its element
	const twelveXML = `<eventDetails sourceId="hospital-src-00000012" class="hospital.blood-test" producer="hospital">` +
		`<field name="f101">v1</field><field name="f102">v2</field><field name="f103">v3</field><field name="f104">v4</field>` +
		`<field name="f105">v5</field><field name="f106">v6</field><field name="f107"></field><field name="f108">v8</field>` +
		`<field name="f109">v9</field><field name="f110">v10</field><field name="f111">v11</field><field name="f112">v12</field></eventDetails>`

	for _, tc := range []struct {
		name string
		d    *Detail
		want string
	}{
		{"zero value, nil field map", &Detail{},
			`<eventDetails sourceId="" class="" producer=""></eventDetails>`},
		{"no fields", NewDetail("c.x", "s", "p"),
			`<eventDetails sourceId="s" class="c.x" producer="p"></eventDetails>`},
		{"one field", NewDetail("c.x", "s", "p").Set("hemoglobin", "13.1"),
			`<eventDetails sourceId="s" class="c.x" producer="p"><field name="hemoglobin">13.1</field></eventDetails>`},
		{"twelve fields, one empty, name-sorted", twelve, twelveXML},
		{"every escaped character, in attributes, field names and values",
			NewDetail("c.x", goldenNasty, goldenNasty).Set(goldenNasty, goldenNasty).Set("a", "é"),
			`<eventDetails sourceId="` + goldenNastyXML + `" class="c.x" producer="` + goldenNastyXML + `"><field name="a">é</field><field name="` + goldenNastyXML + `">` + goldenNastyXML + `</field></eventDetails>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := EncodeDetail(tc.d)
			ref, refErr := refDetail(tc.d)
			goldenCheck(t, got, err, ref, refErr, tc.want)

			var want Detail
			if err := xml.Unmarshal([]byte(tc.want), &want); err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeDetail([]byte(tc.want))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*dec, want) {
				t.Errorf("decoded %+v, encoding/xml decodes %+v", *dec, want)
			}
			if !xmlAgrees(t, []byte(tc.want), readDetail) {
				t.Error("the reader declined the encoder's own output")
			}
		})
	}
}

func TestGoldenDetailRequestXML(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    DetailRequest
		want string
	}{
		{"zero value: <at> is never omitted", DetailRequest{},
			`<DetailRequest><requester></requester><class></class><eventId></eventId><purpose></purpose><at>0001-01-01T00:00:00Z</at></DetailRequest>`},
		{"no trace, zero At",
			DetailRequest{Requester: "family-doctor", Class: "hospital.blood-test", EventID: "evt-1", Purpose: PurposeHealthcareTreatment},
			`<DetailRequest><requester>family-doctor</requester><class>hospital.blood-test</class><eventId>evt-1</eventId><purpose>healthcare-treatment</purpose><at>0001-01-01T00:00:00Z</at></DetailRequest>`},
		{"trace and nanosecond At",
			DetailRequest{Requester: "org/dept/doc", Class: "c.x", EventID: "evt-2", Purpose: "care",
				At: time.Date(2026, 8, 5, 10, 0, 0, 7, time.UTC), Trace: "feedbeefcafe0001"},
			`<DetailRequest trace="feedbeefcafe0001"><requester>org/dept/doc</requester><class>c.x</class><eventId>evt-2</eventId><purpose>care</purpose><at>2026-08-05T10:00:00.000000007Z</at></DetailRequest>`},
		{"every escaped character",
			DetailRequest{Requester: goldenNasty, Class: "c.x", EventID: goldenNasty, Purpose: "care", Trace: goldenNasty},
			`<DetailRequest trace="` + goldenNastyXML + `"><requester>` + goldenNastyXML + `</requester><class>c.x</class><eventId>` + goldenNastyXML + `</eventId><purpose>care</purpose><at>0001-01-01T00:00:00Z</at></DetailRequest>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := EncodeDetailRequest(&tc.r)
			ref, refErr := xml.Marshal(&tc.r)
			goldenCheck(t, got, err, ref, refErr, tc.want)

			var want DetailRequest
			if err := xml.Unmarshal([]byte(tc.want), &want); err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeDetailRequest([]byte(tc.want))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*dec, want) {
				t.Errorf("decoded %+v, encoding/xml decodes %+v", *dec, want)
			}
			if !xmlAgrees(t, []byte(tc.want), readDetailRequest) {
				t.Error("the reader declined the encoder's own output")
			}
		})
	}
}

// A time outside years 0-9999 has no RFC 3339 form: the encoders must
// refuse it, as time.MarshalText does, and never print a five-digit
// year their own decoder and every peer would reject.
func TestEncodeRefusesOutOfRangeTimes(t *testing.T) {
	y10k := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := EncodeNotification(&Notification{OccurredAt: y10k}); err == nil {
		t.Error("EncodeNotification accepted occurredAt in year 10000")
	}
	if _, err := EncodeNotification(&Notification{PublishedAt: y10k}); err == nil {
		t.Error("EncodeNotification accepted publishedAt in year 10000")
	}
	if _, err := EncodeNotification(&Notification{OccurredAt: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)}); err == nil {
		t.Error("EncodeNotification accepted occurredAt in year -1")
	}
	if _, err := EncodeDetailRequest(&DetailRequest{At: y10k}); err == nil {
		t.Error("EncodeDetailRequest accepted at in year 10000")
	}
}
