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
// The control messages of the transport layer (faults, publish and
// subscribe responses, the subscribe request) reuse the event-layer
// frame primitives with their own frame types (4-7), so one magic
// sniff distinguishes every message kind on the wire.

import (
	"encoding/xml"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/xmlx"
)

// requestCodec picks the codec that decodes a request body: an explicit
// binary Content-Type wins, otherwise the frame magic is sniffed so
// pre-negotiated peers need no header at all. Everything else is XML.
func requestCodec(r *http.Request, body []byte) event.Codec {
	if strings.HasPrefix(r.Header.Get("Content-Type"), event.ContentTypeBinary) {
		return event.Binary
	}
	if event.IsBinaryFrame(body) {
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
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return nil, errors.New("transport: read body: " + err.Error())
	}
	return data, nil
}

// writeBody sends a pre-encoded response body.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	w.Write(body)
}

// --- binary control frames -------------------------------------------------

// fault frame: code, message, then (since the sharded transport) the
// optional shard redirect pair — owner id and map version as decimal
// strings, empty when absent. Decoders that predate the pair ignored
// trailing bytes, and this decoder treats a frame ending after the
// message as a pre-shard fault, so both directions stay compatible.
func encodeFaultFrame(f *Fault) []byte {
	out := event.AppendFrameHeader(nil, event.FrameFault)
	out = event.AppendFrameString(out, f.Code)
	out = event.AppendFrameString(out, f.Message)
	if f.Shard != "" || f.MapVersion != 0 {
		out = event.AppendFrameString(out, f.Shard)
		out = event.AppendFrameString(out, strconv.FormatUint(f.MapVersion, 10))
	}
	return out
}

func decodeFaultFrame(data []byte, f *Fault) error {
	p, err := event.FrameBody(data, event.FrameFault)
	if err != nil {
		return err
	}
	if f.Code, p, err = event.FrameString(p); err != nil {
		return err
	}
	if f.Message, p, err = event.FrameString(p); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil // pre-shard fault: no redirect pair
	}
	if f.Shard, p, err = event.FrameString(p); err != nil {
		return err
	}
	var ver string
	if ver, _, err = event.FrameString(p); err != nil {
		return err
	}
	f.MapVersion, _ = strconv.ParseUint(ver, 10, 64)
	return nil
}

// publishResponse frame: event id.
func encodePublishResponseFrame(gid event.GlobalID) []byte {
	out := event.AppendFrameHeader(nil, event.FramePublishResponse)
	return event.AppendFrameString(out, string(gid))
}

func decodePublishResponseFrame(data []byte) (event.GlobalID, error) {
	p, err := event.FrameBody(data, event.FramePublishResponse)
	if err != nil {
		return "", err
	}
	id, _, err := event.FrameString(p)
	return event.GlobalID(id), err
}

// subscribeRequest frame: actor, class, callback URL, callback codec
// name ("" means XML — the same default as the XML form's omitted
// <codec> element).
func encodeSubscribeRequestFrame(req *subscribeRequest) []byte {
	out := event.AppendFrameHeader(nil, event.FrameSubscribeReq)
	out = event.AppendFrameString(out, string(req.Actor))
	out = event.AppendFrameString(out, string(req.Class))
	out = event.AppendFrameString(out, req.Callback)
	out = event.AppendFrameString(out, req.Codec)
	return out
}

func decodeSubscribeRequestFrame(data []byte) (*subscribeRequest, error) {
	p, err := event.FrameBody(data, event.FrameSubscribeReq)
	if err != nil {
		return nil, err
	}
	var req subscribeRequest
	var s string
	if s, p, err = event.FrameString(p); err != nil {
		return nil, err
	}
	req.Actor = event.Actor(s)
	if s, p, err = event.FrameString(p); err != nil {
		return nil, err
	}
	req.Class = event.ClassID(s)
	if req.Callback, p, err = event.FrameString(p); err != nil {
		return nil, err
	}
	if req.Codec, _, err = event.FrameString(p); err != nil {
		return nil, err
	}
	return &req, nil
}

// subscribeResponse frame: subscription id.
func encodeSubscribeResponseFrame(id string) []byte {
	out := event.AppendFrameHeader(nil, event.FrameSubscribeResp)
	return event.AppendFrameString(out, id)
}

func decodeSubscribeResponseFrame(data []byte) (string, error) {
	p, err := event.FrameBody(data, event.FrameSubscribeResp)
	if err != nil {
		return "", err
	}
	id, _, err := event.FrameString(p)
	return id, err
}

// --- negotiated writers ----------------------------------------------------

func writePublishResponseAs(w http.ResponseWriter, codec event.Codec, status int, gid event.GlobalID) {
	if codec == event.Binary {
		writeBody(w, status, event.ContentTypeBinary, encodePublishResponseFrame(gid))
		return
	}
	m := publishResponse{EventID: gid}
	writeBody(w, status, respContentType(event.XML), m.appendXML(make([]byte, 0, 64+len(gid))))
}

func writeSubscribeResponseAs(w http.ResponseWriter, codec event.Codec, id string) {
	if codec == event.Binary {
		writeBody(w, http.StatusOK, event.ContentTypeBinary, encodeSubscribeResponseFrame(id))
		return
	}
	writeXML(w, http.StatusOK, &subscribeResponse{ID: id})
}

// decodeAnyPublishResponse sniffs the ack format, so a client behind a
// format-rewriting middleware still lands on its feet.
func decodeAnyPublishResponse(data []byte) (event.GlobalID, error) {
	if event.IsBinaryFrame(data) {
		return decodePublishResponseFrame(data)
	}
	out, err := xmlx.Decode(data, readPublishResponse, xml.Unmarshal)
	if err != nil {
		return "", err
	}
	return out.EventID, nil
}

func decodeAnySubscribeResponse(data []byte) (string, error) {
	if event.IsBinaryFrame(data) {
		return decodeSubscribeResponseFrame(data)
	}
	var out subscribeResponse
	if err := xml.Unmarshal(data, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// decodeAnyDetail sniffs a detail payload: the peer was asked for the
// negotiated codec via Accept, but either format decodes.
func decodeAnyDetail(data []byte) (*event.Detail, error) {
	if event.IsBinaryFrame(data) {
		return event.Binary.DecodeDetail(data)
	}
	return event.XML.DecodeDetail(data)
}
