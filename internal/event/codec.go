// Binary wire codec and the Codec abstraction over wire formats.
//
// The platform's canonical wire format is XML (paper §5: notifications and
// event details travel as XML documents between web services). XML keeps
// the paper-fidelity interface for external integrations, but its encoder
// dominates the controller's publish path. This file adds a compact
// length-prefixed binary framing ("application/x-css-frame") that clients
// negotiate per request via standard HTTP content negotiation; both
// formats implement the same Codec interface so core and transport are
// format-agnostic.
//
// The frame header, the field primitives and the hardened reader live in
// internal/frame; this file owns frame types 1-3 (notification, detail,
// detail request). Their field layouts are tabulated in DESIGN.md §8.
// Detail fields are written in sorted name order so identical payloads
// yield identical bytes (matching the deterministic XML form).
package event

import (
	"encoding/binary"
	"errors"
	"sort"
	"strconv"
	"sync"

	"repro/internal/frame"
)

// Content types exchanged in Accept / Content-Type headers.
const (
	// ContentTypeXML is the default, paper-faithful XML wire format.
	ContentTypeXML = "application/xml"
	// ContentTypeBinary is the negotiated compact binary framing.
	ContentTypeBinary = "application/x-css-frame"
)

// Codec serializes the three wire message kinds that travel between
// producers, the data controller and consumers. Implementations must be
// safe for concurrent use.
type Codec interface {
	// Name is the short label used in flags, bench output and logs
	// ("xml" or "binary").
	Name() string
	// ContentType is the HTTP media type announced for this codec.
	ContentType() string

	EncodeNotification(*Notification) ([]byte, error)
	DecodeNotification([]byte) (*Notification, error)
	EncodeDetail(*Detail) ([]byte, error)
	DecodeDetail([]byte) (*Detail, error)
	EncodeDetailRequest(*DetailRequest) ([]byte, error)
	DecodeDetailRequest([]byte) (*DetailRequest, error)
}

// CodecByName resolves a -codec flag value.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "xml":
		return XML, nil
	case "binary":
		return Binary, nil
	}
	return nil, errors.New("event: unknown codec " + strconv.Quote(name) + " (want xml or binary)")
}

// XML is the default codec: the paper-faithful XML wire format.
var XML Codec = xmlCodec{}

// Binary is the negotiated compact binary framing codec.
var Binary Codec = binaryCodec{}

type binaryCodec struct{}

func (binaryCodec) Name() string        { return "binary" }
func (binaryCodec) ContentType() string { return ContentTypeBinary }

// EncodeNotification writes a notification frame in exactly one
// allocation: the frame size is computed up front and the buffer is
// filled by appends that never grow it. Like the XML encoder, it refuses
// a time its format cannot carry.
func (binaryCodec) EncodeNotification(n *Notification) ([]byte, error) {
	if err := CheckWireTime(n.OccurredAt); err != nil {
		return nil, err
	}
	if err := CheckWireTime(n.PublishedAt); err != nil {
		return nil, err
	}
	size := frame.HeaderLen +
		frame.StringLen(string(n.ID)) +
		frame.StringLen(n.Trace) +
		frame.StringLen(string(n.SourceID)) +
		frame.StringLen(string(n.Class)) +
		frame.StringLen(n.PersonID) +
		frame.StringLen(n.Summary) +
		frame.StringLen(string(n.Producer)) +
		frame.TimeLen(n.OccurredAt) +
		frame.TimeLen(n.PublishedAt)
	dst := make([]byte, 0, size)
	dst = frame.AppendHeader(dst, frame.Notification)
	dst = frame.AppendString(dst, string(n.ID))
	dst = frame.AppendString(dst, n.Trace)
	dst = frame.AppendString(dst, string(n.SourceID))
	dst = frame.AppendString(dst, string(n.Class))
	dst = frame.AppendString(dst, n.PersonID)
	dst = frame.AppendString(dst, n.Summary)
	dst = frame.AppendString(dst, string(n.Producer))
	dst = frame.AppendTime(dst, n.OccurredAt)
	dst = frame.AppendTime(dst, n.PublishedAt)
	return dst, nil
}

// The decoders below list each frame's fields in wire order inside a
// struct literal: Go evaluates the reads left to right, and the reader
// keeps its first failure until Done.

func (binaryCodec) DecodeNotification(data []byte) (*Notification, error) {
	r := frame.Read(data, frame.Notification)
	n := &Notification{
		ID:          GlobalID(r.String()),
		Trace:       r.String(),
		SourceID:    SourceID(r.String()),
		Class:       ClassID(r.String()),
		PersonID:    r.String(),
		Summary:     r.String(),
		Producer:    ProducerID(r.String()),
		OccurredAt:  r.Time(),
		PublishedAt: r.Time(),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return n, nil
}

// fieldNamesPool recycles the scratch slice used to sort detail field
// names during encode, so steady-state detail encoding does not allocate
// for the ordering pass.
var fieldNamesPool = sync.Pool{
	New: func() any { s := make([]FieldName, 0, 16); return &s },
}

func (binaryCodec) EncodeDetail(d *Detail) ([]byte, error) {
	np := fieldNamesPool.Get().(*[]FieldName)
	names := (*np)[:0]
	for f := range d.Fields {
		names = append(names, f)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })

	size := frame.HeaderLen +
		frame.StringLen(string(d.SourceID)) +
		frame.StringLen(string(d.Class)) +
		frame.StringLen(string(d.Producer)) +
		frame.UvarintLen(uint64(len(names)))
	for _, f := range names {
		size += frame.StringLen(string(f)) + frame.StringLen(d.Fields[f])
	}
	dst := make([]byte, 0, size)
	dst = frame.AppendHeader(dst, frame.Detail)
	dst = frame.AppendString(dst, string(d.SourceID))
	dst = frame.AppendString(dst, string(d.Class))
	dst = frame.AppendString(dst, string(d.Producer))
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, f := range names {
		dst = frame.AppendString(dst, string(f))
		dst = frame.AppendString(dst, d.Fields[f])
	}
	*np = names[:0]
	fieldNamesPool.Put(np)
	return dst, nil
}

func (binaryCodec) DecodeDetail(data []byte) (*Detail, error) {
	r := frame.Read(data, frame.Detail)
	d := &Detail{
		SourceID: SourceID(r.String()),
		Class:    ClassID(r.String()),
		Producer: ProducerID(r.String()),
	}
	// A field pair is at least two bytes: two zero-length strings.
	count := r.Count(2)
	d.Fields = make(map[FieldName]string, count)
	for i := 0; i < count; i++ {
		name := FieldName(r.String())
		d.Fields[name] = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

func (binaryCodec) EncodeDetailRequest(r *DetailRequest) ([]byte, error) {
	if err := CheckWireTime(r.At); err != nil {
		return nil, err
	}
	size := frame.HeaderLen +
		frame.StringLen(string(r.Requester)) +
		frame.StringLen(string(r.Class)) +
		frame.StringLen(string(r.EventID)) +
		frame.StringLen(string(r.Purpose)) +
		frame.StringLen(r.Trace) +
		frame.TimeLen(r.At)
	dst := make([]byte, 0, size)
	dst = frame.AppendHeader(dst, frame.DetailRequest)
	dst = frame.AppendString(dst, string(r.Requester))
	dst = frame.AppendString(dst, string(r.Class))
	dst = frame.AppendString(dst, string(r.EventID))
	dst = frame.AppendString(dst, string(r.Purpose))
	dst = frame.AppendString(dst, r.Trace)
	dst = frame.AppendTime(dst, r.At)
	return dst, nil
}

func (binaryCodec) DecodeDetailRequest(data []byte) (*DetailRequest, error) {
	r := frame.Read(data, frame.DetailRequest)
	req := &DetailRequest{
		Requester: Actor(r.String()),
		Class:     ClassID(r.String()),
		EventID:   GlobalID(r.String()),
		Purpose:   Purpose(r.String()),
		Trace:     r.String(),
		At:        r.Time(),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return req, nil
}
