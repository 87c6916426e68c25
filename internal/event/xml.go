package event

import (
	"encoding/xml"
	"slices"
	"time"

	"repro/internal/xmlx"
)

// The XML wire form of the three event messages. Encoding is
// hand-written over xmlx and byte-identical to what encoding/xml made
// of the struct tags (xml_golden_test.go keeps that reference).
// Decoding first runs the single-pass xmlx reader, which accepts
// exactly the documents the encoders here emit, and hands everything
// else — pretty-printed, declared, namespaced, reordered — to
// encoding/xml, which stays the definition of what the platform
// accepts.

// detailXML is the encoding/xml view of a Detail message, used when the
// reader declines a document.
type detailXML struct {
	XMLName  xml.Name   `xml:"eventDetails"`
	SourceID SourceID   `xml:"sourceId,attr"`
	Class    ClassID    `xml:"class,attr"`
	Producer ProducerID `xml:"producer,attr"`
	Fields   []fieldXML `xml:"field"`
}

type fieldXML struct {
	Name  FieldName `xml:"name,attr"`
	Value string    `xml:",chardata"`
}

// UnmarshalXML implements xml.Unmarshaler.
func (d *Detail) UnmarshalXML(dec *xml.Decoder, start xml.StartElement) error {
	var w detailXML
	if err := dec.DecodeElement(&w, &start); err != nil {
		return err
	}
	d.SourceID = w.SourceID
	d.Class = w.Class
	d.Producer = w.Producer
	d.Fields = make(map[FieldName]string, len(w.Fields))
	for _, f := range w.Fields {
		d.Fields[f.Name] = f.Value
	}
	return nil
}

// EncodeDetail serializes a detail message to its XML wire form. Field
// values are rendered as a name-sorted sequence of <field> elements so
// that the same detail always serializes to the same bytes.
func EncodeDetail(d *Detail) ([]byte, error) {
	names := make([]FieldName, 0, len(d.Fields))
	size := 64 + len(d.SourceID) + len(d.Class) + len(d.Producer)
	for name, value := range d.Fields {
		names = append(names, name)
		size += 32 + len(name) + len(value)
	}
	slices.Sort(names)
	dst := append(make([]byte, 0, size), "<eventDetails"...)
	dst = xmlx.AppendAttr(dst, "sourceId", string(d.SourceID))
	dst = xmlx.AppendAttr(dst, "class", string(d.Class))
	dst = xmlx.AppendAttr(dst, "producer", string(d.Producer))
	dst = append(dst, '>')
	for _, name := range names {
		dst = append(dst, "<field"...)
		dst = xmlx.AppendAttr(dst, "name", string(name))
		dst = append(dst, '>')
		dst = xmlx.AppendText(dst, d.Fields[name])
		dst = append(dst, "</field>"...)
	}
	return append(dst, "</eventDetails>"...), nil
}

// readDetail accepts the documents EncodeDetail emits. A repeated field
// name declines: which one wins is encoding/xml's to say. (Two distinct
// names can meet on the wire when both hold bytes the encoder replaces
// with U+FFFD.)
func readDetail(r *xmlx.Reader, d *Detail) {
	r.Expect("<eventDetails")
	d.SourceID = SourceID(r.Attr("sourceId"))
	d.Class = ClassID(r.Attr("class"))
	d.Producer = ProducerID(r.Attr("producer"))
	r.Expect(">")
	d.Fields = make(map[FieldName]string, 12)
	for r.Peek("<field") {
		r.Expect("<field")
		name := FieldName(r.Attr("name"))
		r.Expect(">")
		value := string(r.Text('<'))
		r.Expect("</field>")
		if _, dup := d.Fields[name]; dup {
			r.Decline()
			return
		}
		d.Fields[name] = value
	}
	r.Expect("</eventDetails>")
}

// DecodeDetail parses a detail message from its XML wire form.
func DecodeDetail(data []byte) (*Detail, error) {
	return xmlx.Decode(data, readDetail, xml.Unmarshal)
}

// appendTime appends <name>t</name> with t in the RFC 3339 form
// time.MarshalText gives — the function encoding/xml calls — so a year
// outside 0-9999 is refused here as it is there.
func appendTime(dst []byte, name string, t time.Time) ([]byte, error) {
	text, err := t.MarshalText()
	if err != nil {
		return nil, err
	}
	dst = append(append(append(dst, '<'), name...), '>')
	dst = append(dst, text...) // digits and -:.+TZ: nothing to escape
	return append(append(append(dst, '<', '/'), name...), '>'), nil
}

// readTime reads <name>t</name> through time.UnmarshalText, the
// function encoding/xml calls.
func readTime(r *xmlx.Reader, name string, t *time.Time) {
	if text := r.ElemBytes(name); t.UnmarshalText(text) != nil {
		r.Decline()
	}
}

// EncodeNotification serializes a notification to its XML wire form.
func EncodeNotification(n *Notification) ([]byte, error) { return AppendNotification(nil, n) }

// AppendNotification appends the XML wire form of n to dst, growing it
// once. The root element is <wire>: the name of the local type this
// function once marshalled through, and wire format since. The document
// never contains "]]>" — every '>' in text is escaped, and every tag
// closes after a name character or a quote — so it can travel inside a
// CDATA section as it is.
func AppendNotification(dst []byte, n *Notification) ([]byte, error) {
	dst = slices.Grow(dst, 256+len(n.ID)+len(n.Trace)+len(n.SourceID)+len(n.Class)+len(n.PersonID)+len(n.Summary)+len(n.Producer))
	dst = append(dst, "<wire"...)
	dst = xmlx.AppendAttr(dst, "id", string(n.ID))
	if n.Trace != "" {
		dst = xmlx.AppendAttr(dst, "trace", n.Trace)
	}
	if n.SourceID != "" {
		dst = xmlx.AppendAttr(dst, "sourceId", string(n.SourceID))
	}
	dst = append(dst, '>')
	dst = xmlx.AppendElem(dst, "class", string(n.Class))
	dst = xmlx.AppendElem(dst, "personId", n.PersonID)
	dst = xmlx.AppendElem(dst, "summary", n.Summary)
	dst, err := appendTime(dst, "occurredAt", n.OccurredAt)
	if err != nil {
		return nil, err
	}
	dst = xmlx.AppendElem(dst, "producer", string(n.Producer))
	if dst, err = appendTime(dst, "publishedAt", n.PublishedAt); err != nil {
		return nil, err
	}
	return append(dst, "</wire>"...), nil
}

func readNotification(r *xmlx.Reader, n *Notification) {
	r.Expect("<wire")
	n.ID = GlobalID(r.Attr("id"))
	if r.Peek(` trace="`) {
		n.Trace = r.Attr("trace")
	}
	if r.Peek(` sourceId="`) {
		n.SourceID = SourceID(r.Attr("sourceId"))
	}
	r.Expect(">")
	n.Class = ClassID(r.Elem("class"))
	n.PersonID = r.Elem("personId")
	n.Summary = r.Elem("summary")
	readTime(r, "occurredAt", &n.OccurredAt)
	n.Producer = ProducerID(r.Elem("producer"))
	readTime(r, "publishedAt", &n.PublishedAt)
	r.Expect("</wire>")
}

// DecodeNotification parses a notification from its XML wire form. Any
// root element name is accepted, as encoding/xml accepts it.
func DecodeNotification(data []byte) (*Notification, error) {
	return xmlx.Decode(data, readNotification, xml.Unmarshal)
}

// EncodeDetailRequest serializes a detail request to its XML wire form.
func EncodeDetailRequest(r *DetailRequest) ([]byte, error) {
	size := 160 + len(r.Trace) + len(r.Requester) + len(r.Class) + len(r.EventID) + len(r.Purpose)
	dst := append(make([]byte, 0, size), "<DetailRequest"...)
	if r.Trace != "" {
		dst = xmlx.AppendAttr(dst, "trace", r.Trace)
	}
	dst = append(dst, '>')
	dst = xmlx.AppendElem(dst, "requester", string(r.Requester))
	dst = xmlx.AppendElem(dst, "class", string(r.Class))
	dst = xmlx.AppendElem(dst, "eventId", string(r.EventID))
	dst = xmlx.AppendElem(dst, "purpose", string(r.Purpose))
	dst, err := appendTime(dst, "at", r.At)
	if err != nil {
		return nil, err
	}
	return append(dst, "</DetailRequest>"...), nil
}

func readDetailRequest(r *xmlx.Reader, req *DetailRequest) {
	r.Expect("<DetailRequest")
	if r.Peek(` trace="`) {
		req.Trace = r.Attr("trace")
	}
	r.Expect(">")
	req.Requester = Actor(r.Elem("requester"))
	req.Class = ClassID(r.Elem("class"))
	req.EventID = GlobalID(r.Elem("eventId"))
	req.Purpose = Purpose(r.Elem("purpose"))
	readTime(r, "at", &req.At)
	r.Expect("</DetailRequest>")
}

// DecodeDetailRequest parses a detail request from its XML wire form.
func DecodeDetailRequest(data []byte) (*DetailRequest, error) {
	return xmlx.Decode(data, readDetailRequest, xml.Unmarshal)
}

// xmlCodec adapts the package-level XML encode/decode functions to the
// Codec interface. It lives in this file so that codec.go — part of the
// binary hot path — never imports encoding/xml (enforced by lint-hotpath).
type xmlCodec struct{}

func (xmlCodec) Name() string        { return "xml" }
func (xmlCodec) ContentType() string { return ContentTypeXML }

func (xmlCodec) EncodeNotification(n *Notification) ([]byte, error) { return EncodeNotification(n) }
func (xmlCodec) DecodeNotification(data []byte) (*Notification, error) {
	return DecodeNotification(data)
}
func (xmlCodec) EncodeDetail(d *Detail) ([]byte, error)    { return EncodeDetail(d) }
func (xmlCodec) DecodeDetail(data []byte) (*Detail, error) { return DecodeDetail(data) }
func (xmlCodec) EncodeDetailRequest(r *DetailRequest) ([]byte, error) {
	return EncodeDetailRequest(r)
}
func (xmlCodec) DecodeDetailRequest(data []byte) (*DetailRequest, error) {
	return DecodeDetailRequest(data)
}
