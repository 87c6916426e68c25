package event

import "time"

// DetailRequest is a consumer's request for the details of an event it
// was notified about. It corresponds to r = {A_r, τ_e, eID, s} of
// Algorithm 1: the requesting actor, the event class, the global event
// identifier taken from a notification, and an explicitly stated purpose
// of use. The notification is a pre-requisite: only consumers that were
// notified (or found the event through an authorized index inquiry) know
// the global ID needed to issue the request.
type DetailRequest struct {
	// Requester is the actor asking for the details.
	Requester Actor `xml:"requester"`
	// Class is the event class τ_e of the requested details.
	Class ClassID `xml:"class"`
	// EventID is the controller-assigned global identifier of the event.
	EventID GlobalID `xml:"eventId"`
	// Purpose is the declared purpose of use.
	Purpose Purpose `xml:"purpose"`
	// At is the logical time of the request; the zero value means "now".
	// Policies with validity windows are evaluated against this instant.
	// On the wire <at> is always present: omitempty is inert on a struct,
	// so a zero At travels as 0001-01-01T00:00:00Z, and peers depend on
	// the element being there.
	At time.Time `xml:"at,omitempty"`
	// Trace is the correlation identifier of the request flow. Consumers
	// that quote the trace of the originating notification correlate the
	// two phases of the interaction; with an empty trace the controller
	// mints a fresh one at resolution time. Either way every audit
	// record, PDP span and gateway fetch of the request carries it.
	Trace string `xml:"trace,attr,omitempty"`
}

// Validate checks the structural integrity of a detail request.
func (r *DetailRequest) Validate() error {
	if err := r.Requester.Validate(); err != nil {
		return err
	}
	if err := r.Class.Validate(); err != nil {
		return err
	}
	if r.EventID == "" {
		return invalid("event: detail request missing event id")
	}
	if err := CheckWireTime(r.At); err != nil {
		return err
	}
	return r.Purpose.Validate()
}

// Decision is the outcome of an authorization evaluation.
type Decision int

const (
	// Deny refuses the request. It is the default (deny-by-default,
	// paper §5.1): unless permitted by some privacy policy an event
	// details cannot be accessed by any subject.
	Deny Decision = iota
	// Permit authorizes the request for the fields obliged by the policy.
	Permit
)

// String returns the XACML-style name of the decision.
func (d Decision) String() string {
	if d == Permit {
		return "Permit"
	}
	return "Deny"
}

type errValue string

func (e errValue) Error() string { return string(e) }

// ErrInvalid is what every error of the messages' Validate methods
// wraps (ErrTimeRange aside): a field the protocol requires is missing,
// or a class, actor or purpose is malformed. The sender's message is at
// fault, and no resend can mend it.
const ErrInvalid = errValue("event: invalid message")

// invalid is an error of a Validate method: its own text, wrapping
// ErrInvalid.
type invalid string

func (e invalid) Error() string { return string(e) }

func (e invalid) Unwrap() error { return ErrInvalid }
