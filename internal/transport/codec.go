package transport

// Codec negotiation for the web-service binding. XML remains the
// default wire format (paper fidelity: every fixture in the paper's
// appendix is an XML document), and any client that never sends a
// codec header keeps talking XML forever. A client that POSTs
// application/x-css-frame bodies — or asks for them via Accept — gets
// the compact binary framing on the three hot routes (/ws/publish,
// /ws/details, /ws/subscribe) plus binary fault envelopes, cutting the
// per-message encode/decode cost to a single allocation each way.
//
// The four control envelopes of the transport layer (fault, publish and
// subscribe responses, the subscribe request) are frames of their own
// types (internal/frame, 4-7; layouts in DESIGN.md §8), so one magic
// sniff distinguishes every message kind on the wire.

import (
	"encoding/xml"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/frame"
	"repro/internal/xmlx"
)

// requestCodec picks the codec that decodes a request body: an explicit
// binary Content-Type wins, otherwise the frame magic is sniffed so
// pre-negotiated peers need no header at all. Everything else is XML.
func requestCodec(r *http.Request, body []byte) event.Codec {
	if strings.HasPrefix(r.Header.Get("Content-Type"), event.ContentTypeBinary) {
		return event.Binary
	}
	if frame.IsFrame(body) {
		return event.Binary
	}
	return event.XML
}

// responseCodec honors an explicit Accept preference and otherwise
// mirrors the request codec — a binary publisher gets a binary ack
// without sending two headers per request.
func responseCodec(r *http.Request, reqCodec event.Codec) event.Codec {
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, event.ContentTypeBinary):
		return event.Binary
	case strings.Contains(accept, event.ContentTypeXML):
		return event.XML
	}
	return reqCodec
}

// readRaw reads the size-bounded request body for codec-negotiated
// routes (the codec is chosen after the bytes are in hand).
func readRaw(r *http.Request) ([]byte, error) {
	data, err := readSized(r.Body, r.ContentLength)
	if err != nil {
		return nil, errors.New("transport: read body: " + err.Error())
	}
	return data, nil
}

// writeBody sends a pre-encoded response body with its length, so that
// net/http never chunks it (it does for any body past its 2 KiB buffer
// when no Content-Length is set) and the caller can read it into one
// exactly-sized buffer.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// --- the control envelopes, in either wire format --------------------------

// envelope is one of the four control messages a negotiated route
// answers with or accepts: each has an XML form (appendXML and a
// reader, in wire.go) and a frame (appendFrame/readFrame, below).
type envelope interface {
	appendXML(dst []byte) []byte
	appendFrame(dst []byte) []byte
}

// encodeEnvelope renders m in the codec's wire format.
func encodeEnvelope(codec event.Codec, m envelope) []byte {
	if codec == event.Binary {
		return m.appendFrame(nil)
	}
	return m.appendXML(make([]byte, 0, 128))
}

// writeEnvelope sends m as the response body in the negotiated codec
// (event.XML on the routes that do not negotiate).
func writeEnvelope(w http.ResponseWriter, codec event.Codec, status int, m envelope) {
	writeBody(w, status, respContentType(codec), encodeEnvelope(codec, m))
}

// decodeEnvelope decodes an envelope from either wire format, sniffing
// the frame magic: the peer was asked for the negotiated codec, but a
// format-rewriting middleware (or a peer that ignores Accept) still
// lands on its feet. XML goes through readXML's single pass, with
// encoding/xml behind it for documents outside the canonical form.
func decodeEnvelope[T any, P interface {
	*T
	readFrame(data []byte) error
}](data []byte, readXML func(*xmlx.Reader, *T)) (*T, error) {
	if !frame.IsFrame(data) {
		return xmlx.Decode(data, readXML, xml.Unmarshal)
	}
	v := new(T)
	if err := P(v).readFrame(data); err != nil {
		return nil, err
	}
	return v, nil
}

// The readFrame methods end on Err, not Done: an envelope may grow
// trailing fields that an older reader skips, as the fault did.

// fault frame: code, message, then (since the sharded transport) the
// optional shard redirect pair — owner id and map version as decimal
// strings, the owner empty when absent. A frame ending after the
// message is a pre-shard fault.
func (f *Fault) appendFrame(dst []byte) []byte {
	dst = frame.AppendHeader(dst, frame.Fault)
	dst = frame.AppendString(dst, f.Code)
	dst = frame.AppendString(dst, f.Message)
	if f.Shard != "" || f.MapVersion != 0 {
		dst = frame.AppendString(dst, f.Shard)
		dst = frame.AppendString(dst, strconv.FormatUint(f.MapVersion, 10))
	}
	return dst
}

func (f *Fault) readFrame(data []byte) error {
	r := frame.Read(data, frame.Fault)
	f.Code, f.Message = r.String(), r.String()
	if !r.More() {
		return r.Err()
	}
	f.Shard = r.String()
	version := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	// A version that is not a number fails the decode, as it does in
	// readFault: read as 0, a redirect would never refresh the map.
	var err error
	f.MapVersion, err = strconv.ParseUint(version, 10, 64)
	return err
}

// publishResponse frame: event id.
func (m *publishResponse) appendFrame(dst []byte) []byte {
	return frame.AppendString(frame.AppendHeader(dst, frame.PublishResponse), string(m.EventID))
}

func (m *publishResponse) readFrame(data []byte) error {
	r := frame.Read(data, frame.PublishResponse)
	m.EventID = event.GlobalID(r.String())
	return r.Err()
}

// subscribeRequest frame: actor, class, callback URL, callback codec
// name ("" means XML — the same default as the XML form's omitted
// <codec> element).
func (m *subscribeRequest) appendFrame(dst []byte) []byte {
	dst = frame.AppendHeader(dst, frame.SubscribeRequest)
	dst = frame.AppendString(dst, string(m.Actor))
	dst = frame.AppendString(dst, string(m.Class))
	dst = frame.AppendString(dst, m.Callback)
	return frame.AppendString(dst, m.Codec)
}

func (m *subscribeRequest) readFrame(data []byte) error {
	r := frame.Read(data, frame.SubscribeRequest)
	m.Actor, m.Class = event.Actor(r.String()), event.ClassID(r.String())
	m.Callback, m.Codec = r.String(), r.String()
	return r.Err()
}

// subscribeResponse frame: subscription id.
func (m *subscribeResponse) appendFrame(dst []byte) []byte {
	return frame.AppendString(frame.AppendHeader(dst, frame.SubscribeResponse), m.ID)
}

func (m *subscribeResponse) readFrame(data []byte) error {
	r := frame.Read(data, frame.SubscribeResponse)
	m.ID = r.String()
	return r.Err()
}

// decodeAnyDetail sniffs a detail payload: the peer was asked for the
// negotiated codec via Accept, but either format decodes.
func decodeAnyDetail(data []byte) (*event.Detail, error) {
	if frame.IsFrame(data) {
		return event.Binary.DecodeDetail(data)
	}
	return event.XML.DecodeDetail(data)
}
