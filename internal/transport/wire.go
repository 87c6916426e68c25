// Package transport provides the web-service binding of the CSS platform
// (the paper's SOA layer: "involved entities exchange the data through
// Web Service invocation", §3). All operations of the data controller and
// of the local cooperation gateways are exposed as HTTP endpoints with
// XML message bodies; notifications reach subscribers through callback
// POSTs, preserving the asynchronous event-driven interaction over the
// synchronous substrate.
//
// Faults carry a machine-readable code so the client can reconstruct the
// platform's sentinel errors across the wire (errors.Is keeps working
// remotely).
package transport

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/replication"
	"repro/internal/xmlx"
)

// Fault codes carried by error responses.
const (
	CodeBadRequest          = "bad-request"
	CodeNotProducer         = "not-producer"
	CodeNotConsumer         = "not-consumer"
	CodeUnknownClass        = "unknown-class"
	CodeNotClassOwner       = "not-class-owner"
	CodeSubscriptionDeny    = "subscription-denied"
	CodeConsentDeny         = "consent-denied"
	CodeAccessDenied        = "access-denied"
	CodeUnknownEvent        = "unknown-event"
	CodeNotFound            = "not-found"
	CodeSourceUnavailable   = "source-unavailable"
	CodeUnknownSubscription = "unknown-subscription"
	CodeOverloaded          = "overloaded"
	CodeTimeout             = "timeout"
	CodeCancelled           = "cancelled"
	CodeInternal            = "internal"
	// CodeWrongShard (HTTP 421): the request hit a shard that does not
	// own the person key; the fault names the owner and map version so
	// the client refreshes its shard map and retries there. Permanent
	// for the generic retrier — only the shard-aware client follows it.
	CodeWrongShard = "wrong-shard"
	// CodeNotPrimary (HTTP 421): a request reached a replica (or a
	// deposed primary refusing writes after failover). The fault names
	// the shard and the answering node's map version so the client
	// refreshes its shard map and retries at the current primary.
	// Permanent for the generic retrier — only the shard-aware client
	// follows it.
	CodeNotPrimary = "not-primary"
)

// StatusClientClosedRequest is the de-facto standard status (nginx's
// 499) for a request abandoned by its client: no standard 4xx fits, and
// a 5xx would page operators for the client's own hang-up.
const StatusClientClosedRequest = 499

// ErrUnknownSubscription reports a liveness probe for a subscription id
// the controller does not hold (it restarted, or the id was never
// assigned). Consumers react by re-subscribing.
var ErrUnknownSubscription = errors.New("transport: unknown subscription")

// ErrOverloaded reports a request shed by the server's admission
// controller (HTTP 429). It is transient by construction — the fault
// carries a Retry-After hint the client retriers honor.
var ErrOverloaded = errors.New("transport: server overloaded")

// Fault is the XML error payload. Wrong-shard faults additionally
// carry the owning shard and the map version that assigned it, so a
// routing client learns the redirect without a second round-trip.
type Fault struct {
	XMLName xml.Name `xml:"fault"`
	Code    string   `xml:"code,attr"`
	// Shard is the decimal id of the shard that owns the key (only on
	// wrong-shard faults; empty otherwise).
	Shard string `xml:"shard,attr,omitempty"`
	// MapVersion is the shard-map version the redirect was computed
	// under (only on wrong-shard faults).
	MapVersion uint64 `xml:"mapVersion,attr,omitempty"`
	Message    string `xml:",chardata"`
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("transport: fault %s: %s", f.Code, f.Message)
}

func (f *Fault) appendXML(dst []byte) []byte {
	dst = xmlx.AppendAttr(append(dst, "<fault"...), "code", f.Code)
	if f.Shard != "" {
		dst = xmlx.AppendAttr(dst, "shard", f.Shard)
	}
	if f.MapVersion != 0 {
		dst = strconv.AppendUint(append(dst, ` mapVersion="`...), f.MapVersion, 10)
		dst = append(dst, '"')
	}
	dst = xmlx.AppendText(append(dst, '>'), f.Message)
	return append(dst, "</fault>"...)
}

func readFault(r *xmlx.Reader, f *Fault) {
	f.XMLName.Local = "fault"
	r.Expect("<fault")
	f.Code = r.Attr("code")
	if r.Peek(` shard="`) {
		f.Shard = r.Attr("shard")
	}
	if r.Peek(` mapVersion="`) {
		var err error
		if f.MapVersion, err = strconv.ParseUint(r.Attr("mapVersion"), 10, 64); err != nil {
			r.Decline()
		}
	}
	r.Expect(">")
	f.Message = string(r.Text('<'))
	r.Expect("</fault>")
}

// faultFor maps platform errors to (code, http status).
func faultFor(err error) (string, int) {
	switch {
	case errors.Is(err, core.ErrNotProducer):
		return CodeNotProducer, http.StatusForbidden
	case errors.Is(err, core.ErrNotConsumer):
		return CodeNotConsumer, http.StatusForbidden
	case errors.Is(err, core.ErrUnknownClass):
		return CodeUnknownClass, http.StatusNotFound
	case errors.Is(err, core.ErrNotClassOwner):
		return CodeNotClassOwner, http.StatusForbidden
	case errors.Is(err, core.ErrSubscriptionDeny):
		return CodeSubscriptionDeny, http.StatusForbidden
	case errors.Is(err, core.ErrConsentDeny):
		return CodeConsentDeny, http.StatusForbidden
	case errors.Is(err, enforcer.ErrDenied):
		return CodeAccessDenied, http.StatusForbidden
	case errors.Is(err, enforcer.ErrUnknownEvent):
		return CodeUnknownEvent, http.StatusNotFound
	case errors.Is(err, gateway.ErrNotFound):
		return CodeNotFound, http.StatusNotFound
	case errors.Is(err, enforcer.ErrSourceUnavailable):
		return CodeSourceUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownSubscription):
		return CodeUnknownSubscription, http.StatusNotFound
	case errors.Is(err, cluster.ErrWrongShard):
		// 421 Misdirected Request: the canonical "this server is not
		// able to produce a response for this request" status.
		return CodeWrongShard, http.StatusMisdirectedRequest
	case errors.Is(err, cluster.ErrNotPrimary):
		// Same 421 as wrong-shard: this server cannot produce the
		// response, but another member of the cluster can.
		return CodeNotPrimary, http.StatusMisdirectedRequest
	case errors.Is(err, replication.ErrFenced):
		// A deposed primary whose followers deny its epoch: it is no
		// longer the primary, whatever it believes — steer the client to
		// refresh its map and find the promoted node.
		return CodeNotPrimary, http.StatusMisdirectedRequest
	case errors.Is(err, replication.ErrNotReplica):
		// Promote on a node already primary: the transition already
		// happened, a conflict rather than a server failure.
		return CodeBadRequest, http.StatusConflict
	case errors.Is(err, event.ErrInvalid), errors.Is(err, event.ErrTimeRange):
		// The message decoded, but lacks a field the protocol requires,
		// names a malformed class, actor or purpose, or carries a time
		// only XML can spell: no resend can succeed.
		return CodeBadRequest, http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		// The per-endpoint deadline expired mid-flow: a gateway timeout,
		// retryable (504 is transient for the client's retrier).
		return CodeTimeout, http.StatusGatewayTimeout
	case errors.Is(err, core.ErrCancelled), errors.Is(err, context.Canceled):
		return CodeCancelled, StatusClientClosedRequest
	default:
		return CodeInternal, http.StatusInternalServerError
	}
}

// errorFor reconstructs the sentinel error for a fault code, so remote
// callers observe the same error identities as local ones.
func errorFor(f *Fault) error {
	var base error
	switch f.Code {
	case CodeUnauthorized:
		base = ErrUnauthorized
	case CodeNotProducer:
		base = core.ErrNotProducer
	case CodeNotConsumer:
		base = core.ErrNotConsumer
	case CodeUnknownClass:
		base = core.ErrUnknownClass
	case CodeNotClassOwner:
		base = core.ErrNotClassOwner
	case CodeSubscriptionDeny:
		base = core.ErrSubscriptionDeny
	case CodeConsentDeny:
		base = core.ErrConsentDeny
	case CodeAccessDenied:
		base = enforcer.ErrDenied
	case CodeUnknownEvent:
		base = enforcer.ErrUnknownEvent
	case CodeNotFound:
		base = gateway.ErrNotFound
	case CodeSourceUnavailable:
		base = enforcer.ErrSourceUnavailable
	case CodeUnknownSubscription:
		base = ErrUnknownSubscription
	case CodeOverloaded:
		base = ErrOverloaded
	case CodeTimeout:
		base = context.DeadlineExceeded
	case CodeCancelled:
		base = core.ErrCancelled
	case CodeWrongShard:
		// Rebuild the typed redirect so errors.As recovers the owner
		// hint client-side exactly as a local caller would.
		owner, err := strconv.Atoi(f.Shard)
		if err != nil {
			owner = -1 // malformed hint: still ErrWrongShard, no owner
		}
		base = &cluster.WrongShardError{Owner: cluster.ShardID(owner), Version: f.MapVersion}
	case CodeNotPrimary:
		// Rebuild the typed redirect. Every controller names its shard;
		// a missing shard attribute comes only from an older peer, whose
		// unsharded replica left the zero-valued hint.
		shard, _ := strconv.Atoi(f.Shard)
		base = &cluster.NotPrimaryError{Shard: cluster.ShardID(shard), Version: f.MapVersion}
	default:
		return f
	}
	return fmt.Errorf("%w (remote: %s)", base, f.Message)
}

// faultOf renders err as a wire fault with its HTTP status, populating
// the shard redirect attributes when the error carries them.
func faultOf(err error) (*Fault, int) {
	code, status := faultFor(err)
	f := &Fault{Code: code, Message: err.Error()}
	var wse *cluster.WrongShardError
	if errors.As(err, &wse) {
		f.Shard = strconv.Itoa(int(wse.Owner))
		f.MapVersion = wse.Version
	}
	var npe *cluster.NotPrimaryError
	if errors.As(err, &npe) {
		f.Shard = strconv.Itoa(int(npe.Shard))
		f.MapVersion = npe.Version
	}
	return f, status
}

// writeFault sends an error response in the negotiated codec (event.XML
// on the routes that do not negotiate). Unavailability faults (503)
// carry a Retry-After hint so well-behaved clients pace their retries.
func writeFault(w http.ResponseWriter, codec event.Codec, err error) {
	f, status := faultOf(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeEnvelope(w, codec, status, f)
}

// badRequest answers 400 with a bad-request fault in the negotiated
// codec.
func badRequest(w http.ResponseWriter, codec event.Codec, msg string) {
	writeEnvelope(w, codec, http.StatusBadRequest, &Fault{Code: CodeBadRequest, Message: msg})
}

// writeXML serializes a cold message through encoding/xml as the
// response body. The per-request messages have append-style encoders and
// go through writeEnvelope or writeBody.
func writeXML(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.WriteHeader(status)
	enc := xml.NewEncoder(w)
	enc.Encode(v) // nothing sensible to do with a write error here
}

// readBody decodes a cold XML request body into v through encoding/xml,
// bounding its size.
func readBody(r *http.Request, v any) error {
	data, err := readRaw(r)
	if err != nil {
		return err
	}
	if err := xml.Unmarshal(data, v); err != nil {
		return fmt.Errorf("transport: decode body: %w", err)
	}
	return nil
}

// readBodyAs reads the size-bounded request body of a hot route and
// decodes it with decode: an event decoder, or xmlx.Decode of an
// envelope reader (one xmlx pass over the canonical form this package
// emits, encoding/xml — the definition of what is accepted — for every
// other document).
func readBodyAs[T any](r *http.Request, decode func([]byte) (*T, error)) (*T, error) {
	data, err := readRaw(r)
	if err != nil {
		return nil, err
	}
	v, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("transport: decode body: %w", err)
	}
	return v, nil
}

const maxBodyBytes = 4 << 20

// transientStatus reports whether an HTTP status indicates a condition
// worth retrying (server-side failures and throttling).
func transientStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// retryAfterHeader parses a Retry-After seconds value, zero if absent.
func retryAfterHeader(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Wire messages shared by client and server.

// The XMLName fields below serve encoding/xml on the fallback path; the
// readers set them too, so both paths yield the same value.

type publishResponse struct {
	XMLName xml.Name       `xml:"publishResponse"`
	EventID event.GlobalID `xml:"eventId"`
}

func (m *publishResponse) appendXML(dst []byte) []byte {
	dst = xmlx.AppendElem(append(dst, "<publishResponse>"...), "eventId", string(m.EventID))
	return append(dst, "</publishResponse>"...)
}

func readPublishResponse(r *xmlx.Reader, m *publishResponse) {
	m.XMLName.Local = "publishResponse"
	r.Expect("<publishResponse>")
	m.EventID = event.GlobalID(r.Elem("eventId"))
	r.Expect("</publishResponse>")
}

type subscribeRequest struct {
	XMLName  xml.Name      `xml:"subscribeRequest"`
	Actor    event.Actor   `xml:"actor"`
	Class    event.ClassID `xml:"class"`
	Callback string        `xml:"callback"`
	// Codec names the format the subscriber wants its callback POSTs
	// encoded in ("" or "xml" for the default, "binary" for the compact
	// framing). Negotiated once at subscription time, so every delivery
	// skips per-message negotiation.
	Codec string `xml:"codec,omitempty"`
}

func (m *subscribeRequest) appendXML(dst []byte) []byte {
	dst = xmlx.AppendElem(append(dst, "<subscribeRequest>"...), "actor", string(m.Actor))
	dst = xmlx.AppendElem(dst, "class", string(m.Class))
	dst = xmlx.AppendElem(dst, "callback", m.Callback)
	if m.Codec != "" {
		dst = xmlx.AppendElem(dst, "codec", m.Codec)
	}
	return append(dst, "</subscribeRequest>"...)
}

func readSubscribeRequest(r *xmlx.Reader, m *subscribeRequest) {
	m.XMLName.Local = "subscribeRequest"
	r.Expect("<subscribeRequest>")
	m.Actor = event.Actor(r.Elem("actor"))
	m.Class = event.ClassID(r.Elem("class"))
	m.Callback = r.Elem("callback")
	if r.Peek("<codec>") {
		m.Codec = r.Elem("codec")
	}
	r.Expect("</subscribeRequest>")
}

type subscribeResponse struct {
	XMLName xml.Name `xml:"subscribeResponse"`
	ID      string   `xml:"id"`
}

func (m *subscribeResponse) appendXML(dst []byte) []byte {
	dst = xmlx.AppendElem(append(dst, "<subscribeResponse>"...), "id", m.ID)
	return append(dst, "</subscribeResponse>"...)
}

func readSubscribeResponse(r *xmlx.Reader, m *subscribeResponse) {
	m.XMLName.Local = "subscribeResponse"
	r.Expect("<subscribeResponse>")
	m.ID = r.Elem("id")
	r.Expect("</subscribeResponse>")
}

type inquiryRequest struct {
	XMLName  xml.Name         `xml:"inquiryRequest"`
	Actor    event.Actor      `xml:"actor"`
	PersonID string           `xml:"personId,omitempty"`
	Class    event.ClassID    `xml:"class,omitempty"`
	Producer event.ProducerID `xml:"producer,omitempty"`
	From     string           `xml:"from,omitempty"`
	To       string           `xml:"to,omitempty"`
	Limit    int              `xml:"limit,omitempty"`
}

func (m *inquiryRequest) appendXML(dst []byte) []byte {
	dst = xmlx.AppendElem(append(dst, "<inquiryRequest>"...), "actor", string(m.Actor))
	for _, opt := range [...][2]string{{"personId", m.PersonID}, {"class", string(m.Class)},
		{"producer", string(m.Producer)}, {"from", m.From}, {"to", m.To}} {
		if opt[1] != "" {
			dst = xmlx.AppendElem(dst, opt[0], opt[1])
		}
	}
	if m.Limit != 0 {
		dst = strconv.AppendInt(append(dst, "<limit>"...), int64(m.Limit), 10)
		dst = append(dst, "</limit>"...)
	}
	return append(dst, "</inquiryRequest>"...)
}

func readInquiryRequest(r *xmlx.Reader, m *inquiryRequest) {
	m.XMLName.Local = "inquiryRequest"
	r.Expect("<inquiryRequest>")
	m.Actor = event.Actor(r.Elem("actor"))
	if r.Peek("<personId>") {
		m.PersonID = r.Elem("personId")
	}
	if r.Peek("<class>") {
		m.Class = event.ClassID(r.Elem("class"))
	}
	if r.Peek("<producer>") {
		m.Producer = event.ProducerID(r.Elem("producer"))
	}
	if r.Peek("<from>") {
		m.From = r.Elem("from")
	}
	if r.Peek("<to>") {
		m.To = r.Elem("to")
	}
	if r.Peek("<limit>") {
		var err error
		if m.Limit, err = strconv.Atoi(r.Elem("limit")); err != nil {
			r.Decline()
		}
	}
	r.Expect("</inquiryRequest>")
}

// inquiryResponse is the encoding/xml view of an inquiry's answer: one
// nested notification document per <notification> element.
type inquiryResponse struct {
	XMLName       xml.Name `xml:"inquiryResponse"`
	Notifications []string `xml:"notification"`
}

// appendInquiryResponse appends the answer to an inquiry with each
// notification's document written straight into dst as one CDATA
// section: no intermediate string, no second escaping. A document
// AppendNotification writes never contains "]]>", so one section always
// holds it. This is the one envelope whose bytes differ from what
// encoding/xml writes for inquiryResponse (the escaped form servers sent
// before); encoding/xml, and so every reader, decodes both forms to the
// same strings.
func appendInquiryResponse(dst []byte, notes []*event.Notification) ([]byte, error) {
	// ~400 bytes holds a typical notification in its CDATA wrapper; a
	// longer one grows dst as it is appended.
	dst = append(slices.Grow(dst, 64+400*len(notes)), "<inquiryResponse>"...)
	for _, n := range notes {
		var err error
		if dst, err = event.AppendNotification(append(dst, "<notification><![CDATA["...), n); err != nil {
			return nil, err
		}
		dst = append(dst, "]]></notification>"...)
	}
	return append(dst, "</inquiryResponse>"...), nil
}

// readInquiryDocs walks an inquiry response and hands each nested
// document to doc: a CDATA section's bytes aliased to the input, or the
// unescaped text of the escaped form.
func readInquiryDocs(r *xmlx.Reader, doc func([]byte)) {
	r.Expect("<inquiryResponse>")
	for r.Peek("<notification>") {
		r.Expect("<notification>")
		var body []byte
		if r.Peek("<![CDATA[") {
			body = r.CDATA()
		} else {
			body = r.Text('<')
		}
		r.Expect("</notification>")
		doc(body)
	}
	r.Expect("</inquiryResponse>")
}

// decodeInquiryResponse decodes the notifications of an inquiry
// response in one pass, each from the bytes the reader found it in.
// Anything the reader declines — a document outside the canonical form
// included — goes through encoding/xml and is decoded as before.
func decodeInquiryResponse(data []byte) ([]*event.Notification, error) {
	notes, err := xmlx.Decode(data, func(r *xmlx.Reader, out *[]*event.Notification) {
		readInquiryDocs(r, func(doc []byte) {
			n, err := event.DecodeNotification(doc)
			if err != nil {
				r.Decline()
				return
			}
			*out = append(*out, n)
		})
	}, func(data []byte, v any) error {
		var m inquiryResponse
		if err := xml.Unmarshal(data, &m); err != nil {
			return err
		}
		out := v.(*[]*event.Notification)
		for _, doc := range m.Notifications {
			n, err := event.DecodeNotification([]byte(doc))
			if err != nil {
				return err
			}
			*out = append(*out, n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return *notes, nil
}

type getResponseRequest struct {
	XMLName xml.Name          `xml:"getResponseRequest"`
	Source  event.SourceID    `xml:"sourceId"`
	Fields  []event.FieldName `xml:"fields>field"`
}

func (m *getResponseRequest) appendXML(dst []byte) []byte {
	dst = xmlx.AppendElem(append(dst, "<getResponseRequest>"...), "sourceId", string(m.Source))
	dst = append(dst, "<fields>"...) // present even with no field, as encoding/xml wrote it
	for _, f := range m.Fields {
		dst = xmlx.AppendElem(dst, "field", string(f))
	}
	return append(dst, "</fields></getResponseRequest>"...)
}

func readGetResponseRequest(r *xmlx.Reader, m *getResponseRequest) {
	m.XMLName.Local = "getResponseRequest"
	r.Expect("<getResponseRequest>")
	m.Source = event.SourceID(r.Elem("sourceId"))
	r.Expect("<fields>")
	for r.Peek("<field>") {
		m.Fields = append(m.Fields, event.FieldName(r.Elem("field")))
	}
	r.Expect("</fields></getResponseRequest>")
}

// ReplStatus is the replication snapshot served at GET /ws/replstatus:
// the node's role, its fencing epoch, and — on a primary with an
// attached shipper — per-follower connectivity and lag. Operators and
// the failover runbook read it to pick the most caught-up replica.
type ReplStatus struct {
	XMLName xml.Name `xml:"replication"`
	// Role is "primary" or "replica".
	Role string `xml:"role,attr"`
	// Epoch is the node's one durable fencing epoch: the highest it
	// booted at, adopted, granted, claimed or was promoted at (zero on a
	// controller with no replication node).
	Epoch uint64 `xml:"epoch,attr"`
	// Quorum reports whether publishes wait for follower fsyncs.
	Quorum bool `xml:"quorum,attr,omitempty"`
	// Fenced reports a primary that has been denied by a follower at a
	// higher epoch — it must stop accepting writes.
	Fenced bool `xml:"fenced,attr,omitempty"`
	// Election is the self-healing manager's state ("watching",
	// "campaigning", "leader") when one runs on this node; empty under
	// manual-failover-only deployments.
	Election string `xml:"election,attr,omitempty"`
	// Promised is the highest epoch this node has durably promised — by
	// granting a vote or claiming an epoch for its own campaign. With
	// one epoch per node it equals Epoch; it is reported while the
	// election loop is armed.
	Promised uint64 `xml:"promised,attr,omitempty"`
	// Phi is the failure detector's current suspicion level for the
	// primary (0 while this node is itself the primary).
	Phi       float64        `xml:"phi,attr,omitempty"`
	Followers []ReplFollower `xml:"follower"`
}

// ReplFollower is one follower's shipping state within a ReplStatus.
type ReplFollower struct {
	Addr      string `xml:"addr,attr"`
	Connected bool   `xml:"connected,attr"`
	Fenced    bool   `xml:"fenced,attr,omitempty"`
	LagBytes  int64  `xml:"lagBytes,attr"`
}

// promoteRequest asks a replica to assume the primary role at the
// given fencing epoch (POST /ws/promote).
type promoteRequest struct {
	XMLName xml.Name `xml:"promote"`
	Epoch   uint64   `xml:"epoch,attr"`
}
