// Package enforcer implements the Policy Enforcer module of the data
// controller (paper §5.2, Fig. 4): the Policy Enforcement Point receives
// a request for details, the Policy Information Point maps the global
// event ID to the producer-local one, the Policy Decision Point retrieves
// and evaluates the matching XACML policy, and — on permit — the PEP asks
// the producer's gateway for the authorized part of the event details.
//
// This is Algorithm 1 (getEventDetails):
//
//  1. src_eID ← retrieveEventProducerId(eID)          (PIP)
//  2. ⟨A, e_j, S, F⟩ ← matchingPolicy(R)               (PDP)
//  3. if evaluate(⟨A, e_j, S, F⟩, R) ≡ permit then
//  4. return getResponse(src_eID, F)                 (producer, Alg. 2)
//  5. return deny
package enforcer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/event"
	"repro/internal/idmap"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/xacml"
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

// CacheObserver receives the outcome of one read-path cache lookup. The
// alias form (not a defined type) lets wiring code treat any component
// exposing SetCacheObserver(func(string, bool)) uniformly. For the
// "gateway.flight" pseudo-cache a hit means the fetch was coalesced onto
// an identical in-flight request.
type CacheObserver = func(cache string, hit bool)

// decisionCacheSize bounds the PDP decision cache. Entries are tiny
// (a key triple, a field-name slice and two strings), so the bound is
// about distinct (actor, class, purpose) combinations, not memory.
const decisionCacheSize = 4096

// decisionKey identifies a memoizable match+evaluate outcome. The
// authorized fieldset is not part of the key because it is an output:
// (actor, class, purpose) determine the matching policy and hence its
// fieldset (Definition 3 + the most-specific tie-break).
type decisionKey struct {
	actor   event.Actor
	class   event.ClassID
	purpose event.Purpose
}

// decision is a memoized outcome of Algorithm 1 steps 2–3. Cached
// instances are shared across requests; Fields must be treated as
// immutable by every consumer.
type decision struct {
	epoch    uint64
	permit   bool
	policyID string
	reason   string
	fields   []event.FieldName
}

// flightKey identifies one gateway fetch for coalescing. The policy id
// pins the exact authorized fieldset (a policy's fields are fixed while
// installed), so two requests coalesce only when they would release
// byte-identical privacy-aware details.
type flightKey struct {
	source   event.SourceID
	policyID string
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
// The hot path (GetEventDetails) is accelerated by two mechanisms that
// must never weaken deny-by-default:
//
//   - an epoch-versioned decision cache over steps 2–3. Readers load the
//     epoch before computing and store the outcome under that epoch;
//     AddPolicy/RemovePolicy bump the epoch only after the repository and
//     the PDP are both updated, so an entry is served only if no policy
//     mutation completed since before its computation began. A stale
//     permit is therefore impossible: any request starting after
//     RemovePolicy returns sees the new epoch and re-evaluates. While any
//     installed policy carries a validity window the cache is bypassed
//     entirely (decisions become time-dependent, tracked by timeBounded).
//   - singleflight coalescing of identical gateway fetches, keyed on
//     (source, policy): concurrent consumers authorized by the same
//     policy for the same event share one producer round-trip. The
//     result is shared only for the duration of the flight — the
//     controller never stores event details (see the E13 ablation:
//     controller-side detail caching would duplicate sensitive data
//     outside the producer's control).
type Enforcer struct {
	repo *policy.Repository
	pdp  *xacml.PDP
	ids  *idmap.Map

	mu       sync.RWMutex
	gateways map[event.ProducerID]DetailSource

	epoch       atomic.Uint64
	timeBounded atomic.Int64
	decisions   *cache.LRU[decisionKey, decision]
	flights     cache.Group[flightKey, *event.Detail]
	cacheObs    atomic.Pointer[CacheObserver]
}

// New creates an enforcer around a policy repository (the PAP's store)
// and the ID map (the PIP's backing data).
func New(repo *policy.Repository, ids *idmap.Map) (*Enforcer, error) {
	if repo == nil || ids == nil {
		return nil, errors.New("enforcer: nil repository or id map")
	}
	pdp, err := xacml.NewPDP(xacml.FirstApplicable)
	if err != nil {
		return nil, err
	}
	return &Enforcer{
		repo:      repo,
		pdp:       pdp,
		ids:       ids,
		gateways:  make(map[event.ProducerID]DetailSource),
		decisions: cache.NewLRU[decisionKey, decision](decisionCacheSize),
	}, nil
}

// SetCacheObserver installs the cache hit/miss observer (nil disables).
// The controller wires it into the telemetry registry.
func (e *Enforcer) SetCacheObserver(o CacheObserver) {
	if o == nil {
		e.cacheObs.Store(nil)
		return
	}
	e.cacheObs.Store(&o)
}

// noteCache reports one cache lookup to the observer, if any.
func (e *Enforcer) noteCache(cache string, hit bool) {
	if o := e.cacheObs.Load(); o != nil {
		(*o)(cache, hit)
	}
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

// AddPolicy stores an elicited policy in the repository and installs its
// XACML compilation in the PDP, keeping the two representations in step.
// The stored policy (with its assigned ID) is returned. The decision
// epoch is bumped after the mutation completes (and after a rollback,
// whose intermediate state was briefly visible), invalidating every
// cached decision computed before it.
func (e *Enforcer) AddPolicy(p *policy.Policy) (*policy.Policy, error) {
	stored, err := e.repo.Add(p)
	if err != nil {
		return nil, err
	}
	compiled, err := xacml.Compile(stored)
	if err != nil {
		// Roll back the repository so the two stores stay consistent.
		e.repo.Remove(stored.ID)
		e.epoch.Add(1)
		return nil, err
	}
	if err := e.pdp.Add(compiled); err != nil {
		e.repo.Remove(stored.ID)
		e.epoch.Add(1)
		return nil, err
	}
	if !stored.NotBefore.IsZero() || !stored.NotAfter.IsZero() {
		e.timeBounded.Add(1)
	}
	e.epoch.Add(1)
	return stored, nil
}

// RemovePolicy revokes a policy from both representations. When it
// returns, the epoch has been bumped: the very next request re-evaluates
// against the post-revocation policy set — no cached permit window.
func (e *Enforcer) RemovePolicy(id policy.ID) error {
	p, err := e.repo.Get(id)
	if err != nil {
		return err
	}
	if err := e.repo.Remove(id); err != nil {
		return err
	}
	err = e.pdp.Remove(string(id))
	if !p.NotBefore.IsZero() || !p.NotAfter.IsZero() {
		e.timeBounded.Add(-1)
	}
	e.epoch.Add(1)
	return err
}

// InvalidateDecisions bumps the decision epoch, discarding every cached
// decision. The controller calls it on consent changes: consent is
// checked live on each flow (never cached here), so this is defense in
// depth, keeping the cache's lifetime bounded by any authorization-
// relevant mutation.
func (e *Enforcer) InvalidateDecisions() {
	e.epoch.Add(1)
}

// Repository exposes the policy repository (read paths: listing,
// subscription authorization).
func (e *Enforcer) Repository() *policy.Repository { return e.repo }

// decide runs Algorithm 1 steps 2–3 (policy matching + XACML
// evaluation) through the epoch-versioned decision cache. Decisions are
// memoizable only while no installed policy carries a validity window:
// without windows the outcome is fully determined by (actor, class,
// purpose), whatever the request instant.
func (e *Enforcer) decide(r *event.DetailRequest) decision {
	cacheable := e.timeBounded.Load() == 0
	var key decisionKey
	var epoch uint64
	if cacheable {
		key = decisionKey{actor: r.Requester, class: r.Class, purpose: r.Purpose}
		// Load the epoch BEFORE computing: if a policy mutation completes
		// underneath us, it bumps past this value and the stored entry is
		// stillborn — never served.
		epoch = e.epoch.Load()
		if dec, ok := e.decisions.Get(key); ok && dec.epoch == epoch {
			e.noteCache("pdp.decision", true)
			return dec
		}
		e.noteCache("pdp.decision", false)
	}
	dec := e.evaluate(r)
	if cacheable {
		dec.epoch = epoch
		e.decisions.Put(key, dec)
	}
	return dec
}

// evaluate is the uncached body of decide.
func (e *Enforcer) evaluate(r *event.DetailRequest) decision {
	// Step 2 — policy matching phase: retrieve THE matching policy
	// (Definition 3, with the most-specific-actor/newest tie-break).
	id, err := e.repo.MatchID(r)
	if err != nil {
		return decision{reason: "no matching policy"}
	}
	// Step 3 — evaluate the matched policy in its XACML form.
	resp := e.pdp.EvaluateOne(string(id), xacml.CompileRequest(r))
	if resp.Decision != xacml.Permit {
		return decision{policyID: resp.PolicyID,
			reason: "matched policy did not permit (" + resp.Decision.String() + ")"}
	}
	fields := xacml.AuthorizedFields(&resp)
	if len(fields) == 0 {
		return decision{policyID: resp.PolicyID, reason: "permit without authorized fields"}
	}
	return decision{permit: true, policyID: resp.PolicyID, fields: fields}
}

// fetch asks the producer's gateway for the authorized fields of src,
// coalescing concurrent identical fetches: followers of an in-flight
// call share the leader's result (and its trace). shared reports whether
// the detail came from another caller's flight — the caller must clone
// it before handing it on.
// A follower joining an in-flight fetch shares the leader's context: its
// own deadline cannot cut the shared round-trip short (the leader's
// does), which errs on the side of completing work already paid for. A
// leader that gives up takes only itself down: followers still waiting
// fetch again under their own contexts.
func (e *Enforcer) fetch(ctx context.Context, g DetailSource, trace string, src event.SourceID, policyID string, fields []event.FieldName) (*event.Detail, bool, error) {
	d, shared, err := e.flights.Do(ctx, flightKey{source: src, policyID: policyID}, func() (*event.Detail, error) {
		if cg, ok := g.(ContextDetailSource); ok {
			return cg.GetResponseContext(ctx, trace, src, fields)
		}
		return g.GetResponse(src, fields)
	})
	e.noteCache("gateway.flight", shared)
	return d, shared, err
}

// GetEventDetails resolves a detail request — Algorithm 1 — under no
// particular deadline. See GetEventDetailsContext.
func (e *Enforcer) GetEventDetails(r *event.DetailRequest) (*event.Detail, Outcome, error) {
	return e.GetEventDetailsContext(context.Background(), r)
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
			Reason: fmt.Sprintf("event %s has class %s, not %s", r.EventID, m.Class, r.Class)}
		return nil, out, ErrClassMismatch
	}

	// Steps 2–3, behind the decision cache. The span is a no-op (no
	// clock read) unless the context carries a tracer.
	_, pdpSpan := telemetry.StartSpan(ctx, "pdp.decide")
	dec := e.decide(r)
	if !dec.permit {
		pdpSpan.SetAttr("reason", dec.reason)
		pdpSpan.End()
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			PolicyID: dec.policyID, Reason: dec.reason}
		return nil, out, ErrDenied
	}
	pdpSpan.SetAttr("policy", dec.policyID)
	pdpSpan.End()

	// The caller may be gone (hung up, or past its deadline) by the time
	// the decision lands: stop here, before spending a producer
	// round-trip on an answer nobody is waiting for.
	if err := ctx.Err(); err != nil {
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			PolicyID: dec.policyID, Reason: "request cancelled before gateway fetch"}
		return nil, out, err
	}

	// Step 4 — the producer applies the obligations (Algorithm 2).
	g, err := e.gateway(m.Producer)
	if err != nil {
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			PolicyID: dec.policyID, Reason: err.Error()}
		return nil, out, err
	}
	// The fetch span's context rides into the gateway client, so the
	// producer-side HTTP server span parents under "gateway.fetch".
	fetchCtx, fetchSpan := telemetry.StartSpan(ctx, "gateway.fetch")
	fetchSpan.SetAttr("producer", string(m.Producer))
	d, shared, err := e.fetch(fetchCtx, g, r.Trace, m.Source, dec.policyID, dec.fields)
	fetchSpan.SetError(err)
	fetchSpan.End()
	if err != nil {
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			PolicyID: dec.policyID, Reason: "gateway: " + err.Error()}
		return nil, out, err
	}
	if shared {
		// A coalesced result is aliased by every follower of the flight;
		// hand each consumer its own copy.
		d = d.Clone()
	}
	// Defense in depth: re-check Definition 4 at the controller before
	// forwarding to the consumer.
	if !d.ExposesOnly(dec.fields) {
		out := Outcome{Decision: event.Deny, Producer: m.Producer, Source: m.Source,
			PolicyID: dec.policyID, Reason: "gateway response exposed unauthorized fields"}
		return nil, out, ErrUnsafeResponse
	}
	out := Outcome{
		Decision: event.Permit,
		PolicyID: dec.policyID,
		Fields:   dec.fields,
		Producer: m.Producer,
		Source:   m.Source,
	}
	return d, out, nil
}
