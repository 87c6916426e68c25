// Package enforcer implements the Policy Enforcer module of the data
// controller (paper §5.2, Fig. 4): the Policy Enforcement Point receives
// a request for details, the Policy Information Point maps the global
// event ID to the producer-local one, the Policy Decision Point evaluates
// Definition 3 directly over the policy repository, and — on permit — the
// PEP asks the producer's gateway for the authorized part of the event
// details.
//
// This is Algorithm 1 (getEventDetails):
//
//  1. src_eID ← retrieveEventProducerId(eID)          (PIP)
//  2. ⟨A, e_j, S, F⟩ ← matchingPolicy(R)               (PDP)
//  3. if evaluate(⟨A, e_j, S, F⟩, R) ≡ permit then
//  4. return getResponse(src_eID, F)                 (producer, Alg. 2)
//  5. return deny
//
// A matched policy only grants, so step 3 cannot overturn step 2: the
// match is the decision. The XACML form of the policies (internal/xacml)
// is the paper's Fig. 8 export, proven to decide alike over an exhaustive
// small scope by the equivalence test there; it is not evaluated here.
package enforcer

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/event"
	"repro/internal/idmap"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Errors reported during detail-request resolution.
var (
	// ErrDenied is the "Access Denied message" sent to the consumer when
	// no policy matches or the evaluation fails (deny-by-default).
	ErrDenied = errors.New("enforcer: access denied")
	// ErrUnknownEvent reports a request for an event id the platform
	// never assigned.
	ErrUnknownEvent = errors.New("enforcer: unknown event")
	// ErrClassMismatch reports a request whose declared class does not
	// match the class recorded for the event id.
	ErrClassMismatch = errors.New("enforcer: request class does not match event class")
	// ErrNoGateway reports a producer with no attached gateway.
	ErrNoGateway = errors.New("enforcer: no gateway attached for producer")
	// ErrUnsafeResponse reports a gateway response that exposed fields
	// outside the authorized set (defense in depth; must never happen).
	ErrUnsafeResponse = errors.New("enforcer: gateway response not privacy safe")
	// ErrSourceUnavailable reports a permitted request whose producer
	// gateway could not be reached (connection failure, timeout, open
	// circuit, 5xx). It is deliberately distinct from ErrDenied: an
	// unavailable source is a deferred answer, never a policy denial,
	// and the audit trail records it as such.
	ErrSourceUnavailable = errors.New("enforcer: event source unavailable")
)

// DetailSource is the producer-side interface of Algorithm 2: the local
// cooperation gateway, reached directly in process or through the web
// service transport.
type DetailSource interface {
	GetResponse(src event.SourceID, fields []event.FieldName) (*event.Detail, error)
}

// ContextDetailSource is optionally implemented by detail sources that
// cross a process boundary: the request context rides the fetch end to
// end — the consumer's deadline (or its hang-up) cancels the producer
// round-trip instead of leaving it to run to completion for nobody — and
// the flow's trace/correlation ID travels with it (the HTTP gateway
// client forwards it in the request headers). Preferred over
// GetResponse when available.
type ContextDetailSource interface {
	GetResponseContext(ctx context.Context, trace string, src event.SourceID, fields []event.FieldName) (*event.Detail, error)
}

// Outcome describes how a detail request was resolved, for auditing.
type Outcome struct {
	// Decision is Permit or Deny.
	Decision event.Decision
	// PolicyID names the matched policy, when one matched.
	PolicyID string
	// Fields is the authorized field set on Permit.
	Fields []event.FieldName
	// Producer and Source identify the event origin when resolved.
	Producer event.ProducerID
	Source   event.SourceID
	// Reason explains a denial.
	Reason string
}

// Enforcer wires the PEP, PDP, PIP and the producer gateways together.
// Safe for concurrent use.
//
// Each policy is stored once, in the repository, and every request is
// decided against the live repository under its read lock: a request
// that starts after RemovePolicy returns cannot be permitted by the
// revoked policy, and nothing is memoized that could outlive a policy
// or consent change. Each permitted request makes its own gateway fetch,
// under its own context and trace: two identical requests are two
// disclosures, each fetched and audited for its own requester, and the
// controller never holds event details beyond the request that asked
// for them (see the E13 ablation: controller-side detail caching would
// duplicate sensitive data outside the producer's control).
type Enforcer struct {
	repo *policy.Repository
	ids  *idmap.Map

	mu       sync.RWMutex
	gateways map[event.ProducerID]DetailSource
}

// New creates an enforcer around a policy repository (the PAP's store)
// and the ID map (the PIP's backing data).
func New(repo *policy.Repository, ids *idmap.Map) (*Enforcer, error) {
	if repo == nil || ids == nil {
		return nil, errors.New("enforcer: nil repository or id map")
	}
	return &Enforcer{repo: repo, ids: ids, gateways: make(map[event.ProducerID]DetailSource)}, nil
}

// AttachGateway registers the detail source of a producer.
func (e *Enforcer) AttachGateway(p event.ProducerID, g DetailSource) error {
	if p == "" || g == nil {
		return errors.New("enforcer: empty producer or nil gateway")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gateways[p] = g
	return nil
}

func (e *Enforcer) gateway(p event.ProducerID) (DetailSource, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	g, ok := e.gateways[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoGateway, p)
	}
	return g, nil
}

// AddPolicy stores an elicited policy in the repository; the very next
// request is decided against it. The stored policy (with its assigned
// ID) is returned.
func (e *Enforcer) AddPolicy(p *policy.Policy) (*policy.Policy, error) {
	return e.repo.Add(p)
}

// RemovePolicy revokes a policy; the very next request is decided
// without it.
func (e *Enforcer) RemovePolicy(id policy.ID) error {
	return e.repo.Remove(id)
}

// Repository exposes the policy repository (read paths: listing,
// subscription authorization).
func (e *Enforcer) Repository() *policy.Repository { return e.repo }

// fetch asks the producer's gateway for the authorized fields of src:
// through the request's context and trace when the source takes them,
// else without.
func fetch(ctx context.Context, g DetailSource, trace string, src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	if cg, ok := g.(ContextDetailSource); ok {
		return cg.GetResponseContext(ctx, trace, src, fields)
	}
	return g.GetResponse(src, fields)
}

// GetEventDetailsContext resolves a detail request — Algorithm 1. On
// permit it returns the privacy-aware detail produced by the gateway
// plus the outcome; on deny it returns a nil detail, the outcome with
// the reason, and ErrDenied.
//
// The context bounds the flow: a request already cancelled when the
// gateway fetch would start is stopped before any producer round-trip,
// and the returned error is the context's (never ErrDenied — an
// abandoned request is not a policy denial).
func (e *Enforcer) GetEventDetailsContext(ctx context.Context, r *event.DetailRequest) (*event.Detail, Outcome, error) {
	if err := r.Validate(); err != nil {
		return nil, Outcome{Decision: event.Deny, Reason: err.Error()}, err
	}

	// Step 1 — PIP: map the global event id to its origin.
	m, err := e.ids.Resolve(r.EventID)
	if err != nil {
		if errors.Is(err, idmap.ErrNotFound) {
			out := Outcome{Decision: event.Deny, Reason: "unknown event id"}
			return nil, out, fmt.Errorf("%w: %s", ErrUnknownEvent, r.EventID)
		}
		return nil, Outcome{Decision: event.Deny, Reason: err.Error()}, err
	}
	if m.Class != r.Class {
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			Reason: "event " + string(r.EventID) + " has class " + string(m.Class) + ", not " + string(r.Class)}
		return nil, out, ErrClassMismatch
	}

	// Steps 2–3: the policy Definition 3 selects is the decision. The span
	// is a no-op (no clock read) unless the context carries a tracer.
	_, pdpSpan := telemetry.StartSpan(ctx, "pdp.decide")
	id, fields, err := e.repo.MatchFields(r)
	if err != nil {
		pdpSpan.SetAttr("reason", "no matching policy")
		pdpSpan.End()
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			Reason: "no matching policy"}
		return nil, out, ErrDenied
	}
	policyID := string(id)
	pdpSpan.SetAttr("policy", policyID)
	pdpSpan.End()

	// The caller may be gone (hung up, or past its deadline) by the time
	// the decision lands: stop here, before spending a producer
	// round-trip on an answer nobody is waiting for.
	if err := ctx.Err(); err != nil {
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			PolicyID: policyID, Reason: "request cancelled before gateway fetch"}
		return nil, out, err
	}

	// Step 4 — the producer applies the obligations (Algorithm 2).
	g, err := e.gateway(m.Producer)
	if err != nil {
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			PolicyID: policyID, Reason: err.Error()}
		return nil, out, err
	}
	// The fetch span's context rides into the gateway client, so the
	// producer-side HTTP server span parents under "gateway.fetch".
	fetchCtx, fetchSpan := telemetry.StartSpan(ctx, "gateway.fetch")
	fetchSpan.SetAttr("producer", string(m.Producer))
	d, err := fetch(fetchCtx, g, r.Trace, m.Source, fields)
	fetchSpan.SetError(err)
	fetchSpan.End()
	if err != nil {
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			PolicyID: policyID, Reason: "gateway: " + err.Error()}
		return nil, out, err
	}
	// Defense in depth: re-check Definition 4 at the controller before
	// forwarding to the consumer.
	if !d.ExposesOnly(fields) {
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			PolicyID: policyID, Reason: "gateway response exposed unauthorized fields"}
		return nil, out, ErrUnsafeResponse
	}
	out := Outcome{
		Decision: event.Permit,
		PolicyID: policyID,
		Fields:   fields,
		Producer: m.Producer,
		Source:   m.Source,
	}
	return d, out, nil
}
