package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/telemetry"
)

// --- publish ---------------------------------------------------------------

// Publish accepts a notification from a producer: it assigns the global
// event id, stores the notification in the events index (identifier
// encrypted at rest), audits the publication, and routes the redacted
// notification to the authorized subscribers of its class. The assigned
// global id is returned; the producer keeps it alongside its local id.
//
// Publish is idempotent on (producer, source id): retries return the
// original global id without duplicating index entries. Each
// subscription is handed a publication once; a subscriber that missed
// it catches up by inquiring the index.
func (c *Controller) Publish(n *event.Notification) (event.GlobalID, error) {
	return c.PublishContext(context.Background(), n)
}

// PublishContext is Publish under a request context. The context gates
// admission only: a publication already cancelled on arrival is refused
// before any state changes, but once accepted the flow runs to
// completion — a publish that assigned an id and touched the index must
// be fully indexed, audited and routed, never half-aborted.
func (c *Controller) PublishContext(ctx context.Context, n *event.Notification) (event.GlobalID, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	if err := c.gate(); err != nil {
		return "", err
	}
	if err := n.Validate(); err != nil {
		return "", err
	}
	if !c.reg.HasProducer(n.Producer) {
		return "", fmt.Errorf("%w: %s", ErrNotProducer, n.Producer)
	}
	decl, err := c.reg.Class(n.Class)
	if err != nil {
		return "", fmt.Errorf("%w: %s", ErrUnknownClass, n.Class)
	}
	if decl.Producer != n.Producer {
		return "", fmt.Errorf("%w: %s is owned by %s", ErrNotClassOwner, n.Class, decl.Producer)
	}
	// Pseudonym ownership is enforced before any state changes
	// (critically: before the global id is assigned). The pseudonym it
	// computes keys the index put below.
	pseudonym, err := c.shardAdmit(n.PersonID)
	if err != nil {
		return "", err
	}

	// Mint the flow's trace ID unless the producer supplied one; it rides
	// on the stamped notification through the bus and onto every audit
	// record and span of the flow. The root "publish" span is one of the
	// two sanctioned flow roots; every stage below hangs off it — opened
	// detached because nothing below reads the context, which skips the
	// span-in-context allocations on the hottest flow in the system.
	trace := n.Trace
	if trace == "" {
		trace = telemetry.NewTraceID()
	}
	var parent string
	if telemetry.TraceFrom(ctx) == trace {
		parent = telemetry.SpanIDFrom(ctx)
	}
	pubSpan := c.tracer.StartDetached("publish", trace, parent)
	pubSpan.SetAttr("shard", c.shard.label)
	start := time.Now()
	fail := func(err error) (event.GlobalID, error) {
		pubSpan.SetError(err)
		pubSpan.End()
		return "", err
	}

	// The id assignment stays fully synchronous: the mapping is written to
	// the id-map WAL before anything else, so a producer retry after a
	// process kill finds it and never mints a second id for one source
	// event. The write is fsynced only when the store was opened with
	// store.Options.SyncEvery, which no daemon sets: a machine crash can
	// lose it along with the index and audit writes below.
	gid, err := c.ids.Assign(n.Producer, n.SourceID, n.Class)
	if err != nil {
		return fail(err)
	}
	stamped := n.Clone()
	stamped.ID = gid
	stamped.Trace = trace
	stamped.PublishedAt = c.now()
	// Pipelined group commit: the index batch and the audit record are
	// staged (written to their WALs, visible to reads) and, on SyncEvery
	// stores, their fsyncs kicked in the background, so encoding and bus
	// fan-out overlap the disk barrier instead of queueing behind it. The publisher is acked
	// only after both Waits below — exactly-once indexing holds because a
	// crash before the barrier loses whole WAL frames and the unacked
	// producer retries under the same global id (Assign is idempotent).
	putSpan := pubSpan.StartChild("index.put")
	idxCommit, err := c.idx.PutStagedWith(stamped, pseudonym)
	putSpan.SetError(err)
	putSpan.End()
	if err != nil {
		return fail(err)
	}
	if idxCommit.Pending() {
		// A failed background fsync never advances the WAL's sync mark, so
		// its error (discarded here) resurfaces from the barrier Wait.
		go idxCommit.Wait()
	}
	audSpan := pubSpan.StartChild("audit.append")
	_, audCommit, err := c.aud.AppendStaged(audit.Record{
		At:      stamped.PublishedAt,
		Kind:    audit.KindPublish,
		Actor:   string(n.Producer),
		EventID: gid,
		Class:   n.Class,
		Outcome: "ok",
		Trace:   trace,
	})
	audSpan.SetError(err)
	audSpan.End()
	if err != nil {
		return fail(err)
	}
	if audCommit.Pending() {
		go audCommit.Wait()
	}
	// Quorum replication: the follower fsync barrier is kicked here and
	// joined after the local commit barrier below, so the follower round
	// trip overlaps encoding and bus fan-out exactly like the group
	// commit does — replicated durability rides the same latency window.
	var replDone chan error
	if p := c.repl.Load(); p != nil && p.Quorum() {
		replDone = make(chan error, 1)
		go func() { replDone <- p.Barrier(ctx) }()
	}
	// Route the redacted notification. Per-subscriber consent is applied
	// at delivery time by each subscription's handler wrapper. The bus
	// carries the notification itself, not an encoding of it: every
	// subscription shares the one immutable *event.Notification, and only
	// a callback delivery encodes it, in the codec its subscriber chose.
	// stamped is this flow's private clone and the index does not retain
	// it, so redaction mutates in place — no second clone per publish.
	stamped.SourceID = ""
	// The bus.publish span ID rides the message so each asynchronous
	// delivery parents its bus.deliver span under it.
	busSpan := pubSpan.StartChild("bus.publish")
	err = c.brk.Publish(classTopic(n.Class), stamped, busSpan.ID())
	busSpan.SetError(err)
	busSpan.End()
	if err != nil {
		return fail(err)
	}
	// Commit barrier: group commit means these usually return instantly,
	// the fsync having been shared with concurrent publishers while the
	// fan-out above ran.
	if err := idxCommit.Wait(); err != nil {
		return fail(err)
	}
	if err := audCommit.Wait(); err != nil {
		return fail(err)
	}
	if replDone != nil {
		if err := <-replDone; err != nil {
			return fail(err)
		}
	}
	pubSpan.End()
	c.met.published.Inc()
	elapsed := time.Since(start)
	c.met.publishSeconds.ObserveDurationTrace(elapsed, trace)
	telemetry.LogIfSlow("publish", trace, elapsed)
	return gid, nil
}

// classTopic maps an event class to its bus topic. The catalog is a
// small, stable set while publishes are unbounded, so the concat is
// cached (process-wide: equal class ids map to equal topics under any
// controller).
func classTopic(class event.ClassID) string {
	if v, ok := topicCache.Load(class); ok {
		return v.(string)
	}
	t := "class/" + string(class)
	topicCache.Store(class, t)
	return t
}

var topicCache sync.Map

// subID renders the zero-padded subscription id ("sub-%06d" by hand —
// this file is on the no-fmt hot-path allowlist).
func subID(n int) string {
	s := strconv.Itoa(n)
	if len(s) >= 6 {
		return "sub-" + s
	}
	buf := []byte("sub-000000")
	copy(buf[len(buf)-len(s):], s)
	return string(buf)
}

// flowRootCtx prepares the context for a flow's root span under trace.
// When the incoming context carries a *different* trace (e.g. the HTTP
// middleware minted one but the request body quoted the originating
// flow's), the context's span would parent the root into a foreign
// trace; clear it so the root starts a clean tree instead of an orphan.
func flowRootCtx(ctx context.Context, trace string) context.Context {
	if telemetry.TraceFrom(ctx) == trace {
		return ctx
	}
	return telemetry.WithTraceSpan(ctx, trace, "")
}

// --- subscribe ---------------------------------------------------------------

// Handler consumes notifications delivered to a subscription. The
// notification instance is shared by every subscription the publication
// fanned out to, so handlers must treat it as immutable; call
// n.Clone() before mutating.
type Handler func(n *event.Notification)

// HandlerCtx is Handler with the delivery context: it carries the
// publication's trace and the "bus.deliver" span as current, so
// handlers that call onward (e.g. the HTTP callback to a remote
// consumer) keep the trace one parent-linked tree.
type HandlerCtx func(ctx context.Context, n *event.Notification)

// Subscription is a consumer's durable subscription to an event class.
type Subscription struct {
	id     string
	actor  event.Actor
	class  event.ClassID
	cancel func() error
}

// ID returns the subscription identifier.
func (s *Subscription) ID() string { return s.id }

// Actor returns the subscribed consumer.
func (s *Subscription) Actor() event.Actor { return s.actor }

// Class returns the subscribed event class.
func (s *Subscription) Class() event.ClassID { return s.class }

// Cancel terminates the subscription.
func (s *Subscription) Cancel() error { return s.cancel() }

// Subscribe registers a consumer for the notifications of a class. Per
// §5.2, the consumer must be authorized by the data producer: with no
// privacy policy regulating the access to the corresponding event details
// for this consumer, the subscription request is rejected (deny by
// default). Each delivery additionally honors the data subject's consent
// and re-checks the authorization, so policy revocations take effect on
// live subscriptions.
func (c *Controller) Subscribe(actor event.Actor, class event.ClassID, h Handler) (*Subscription, error) {
	if h == nil {
		return nil, errors.New("core: nil handler")
	}
	// ctxFree: the handler cannot read the context, so delivery skips
	// building one (the delivery span is opened detached instead).
	return c.subscribe(actor, class, func(_ context.Context, n *event.Notification) { h(n) }, true)
}

// SubscribeCtx is Subscribe for context-aware handlers (see HandlerCtx).
func (c *Controller) SubscribeCtx(actor event.Actor, class event.ClassID, h HandlerCtx) (*Subscription, error) {
	return c.subscribe(actor, class, h, false)
}

func (c *Controller) subscribe(actor event.Actor, class event.ClassID, h HandlerCtx, ctxFree bool) (*Subscription, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	if err := actor.Validate(); err != nil {
		return nil, err
	}
	if h == nil {
		return nil, errors.New("core: nil handler")
	}
	if !c.reg.HasConsumer(actor) {
		return nil, fmt.Errorf("%w: %s", ErrNotConsumer, actor)
	}
	if _, err := c.reg.Class(class); err != nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownClass, class)
	}
	trace := telemetry.NewTraceID()
	now := c.now()
	if !c.enf.Repository().AllowsSubscription(actor, class, now) {
		c.met.subDenials.Inc()
		c.aud.Append(audit.Record{
			At: now, Kind: audit.KindSubscribe, Actor: string(actor), Class: class, Outcome: "deny",
			Note: "no authorizing policy", Trace: trace,
		})
		// Notify the producer of the pending access request (§5).
		c.pending.note(actor, class, "", now)
		return nil, fmt.Errorf("%w: %s on %s", ErrSubscriptionDeny, actor, class)
	}

	// The admission is audited before it takes effect: a subscription
	// the audit chain cannot record is not made.
	if _, err := c.aud.Append(audit.Record{
		At: now, Kind: audit.KindSubscribe, Actor: string(actor), Class: class, Outcome: "permit",
		Trace: trace,
	}); err != nil {
		return nil, fmt.Errorf("core: audit subscription: %w", err)
	}

	c.mu.Lock()
	c.subSeq++
	id := subID(c.subSeq)
	c.mu.Unlock()

	busSub, err := c.brk.Subscribe(classTopic(class), id, func(m *bus.Message) error {
		c.deliver(actor, class, h, m, ctxFree)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sub := &Subscription{
		id:    id,
		actor: actor,
		class: class,
		cancel: func() error {
			c.mu.Lock()
			delete(c.subs, id)
			c.mu.Unlock()
			return c.brk.Unsubscribe(busSub.Topic(), busSub.Name())
		},
	}
	c.mu.Lock()
	c.subs[id] = sub
	c.mu.Unlock()
	return sub, nil
}

// deliver applies the per-delivery checks and invokes the handler with
// the publication's shared notification (Publish is the only publisher
// on the controller's bus). The notification carries the trace minted at
// publish time, so the delivery span and any consent suppression
// correlate back to the publication.
func (c *Controller) deliver(actor event.Actor, class event.ClassID, h HandlerCtx, m *bus.Message, ctxFree bool) {
	n := m.Payload.(*event.Notification)
	// Delivery runs on a bus goroutine: rebuild the trace context from
	// the notification and parent the span under the publisher's
	// bus.publish span (riding on the message). Context-free handlers
	// (plain Subscribe) never look at the context, so their delivery
	// span is opened detached and the two context allocations are
	// skipped — the dominant per-subscriber cost of the publish fan-out.
	var ctx context.Context
	var span *telemetry.ActiveSpan
	if ctxFree {
		ctx = context.Background()
		span = c.tracer.StartDetached("bus.deliver", n.Trace, m.SpanParent)
	} else {
		ctx, span = c.tracer.StartSpanFrom(context.Background(), "bus.deliver", n.Trace, m.SpanParent)
	}
	span.SetAttr("subscriber", string(actor))
	// Consent: purpose-agnostic routing check.
	if !c.con.Allows(n.PersonID, class, actor, "") {
		c.met.consentDrops.Inc()
		span.SetAttr("outcome", "consent-drop")
		span.End()
		return
	}
	// Authorization may have been revoked since subscription time.
	if !c.enf.Repository().AllowsSubscription(actor, class, c.now()) {
		c.met.consentDrops.Inc()
		span.SetAttr("outcome", "authorization-drop")
		span.End()
		return
	}
	h(ctx, n)
	c.met.delivered.Inc()
	// The span's own duration doubles as the delivery latency sample, so
	// the hot path reads the clock once at start and once at End.
	elapsed := span.End()
	c.met.deliverySeconds.ObserveDurationTrace(elapsed, n.Trace)
	if elapsed >= telemetry.SlowThreshold() {
		telemetry.LogIfSlow("deliver "+string(actor), n.Trace, elapsed)
	}
}

// --- request for details ------------------------------------------------------

// RequestDetails resolves a consumer's request for event details: consent
// check, then Algorithm 1 (policy matching and evaluation at the PDP,
// field filtering at the producer's gateway), with the outcome audited
// whichever way it goes.
func (c *Controller) RequestDetails(r *event.DetailRequest) (*event.Detail, error) {
	return c.RequestDetailsContext(context.Background(), r)
}

// RequestDetailsContext is RequestDetails under a request context: the
// caller's deadline (or hang-up) propagates through the PDP evaluation
// into the gateway fetch. An abandoned request stops before the producer
// round-trip and is audited with outcome "cancelled" — never "deny",
// since no policy decision was rendered against the consumer.
func (c *Controller) RequestDetailsContext(ctx context.Context, r *event.DetailRequest) (*event.Detail, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if !c.reg.HasConsumer(r.Requester) {
		return nil, fmt.Errorf("%w: %s", ErrNotConsumer, r.Requester)
	}
	if r.At.IsZero() || r.Trace == "" {
		// Stamp with the controller clock so simulated time flows into
		// validity windows, and mint the flow's trace ID unless the
		// consumer quoted one (typically the trace of the originating
		// notification, correlating the two phases).
		rc := *r
		if rc.At.IsZero() {
			rc.At = c.now()
		}
		if rc.Trace == "" {
			rc.Trace = telemetry.NewTraceID()
		}
		r = &rc
	}
	// The root "detail.request" span is the second sanctioned flow root;
	// the consent check, PDP decision and gateway fetch nest beneath it.
	ctx, reqSpan := c.tracer.StartSpan(flowRootCtx(ctx, r.Trace), "detail.request")
	reqSpan.SetAttr("requester", string(r.Requester))
	start := time.Now()
	finish := func(outcome string, spanErr error) {
		c.met.decisions.Inc(outcome)
		elapsed := time.Since(start)
		c.met.detailSeconds.ObserveDurationTrace(elapsed, r.Trace, outcome)
		reqSpan.SetAttr("outcome", outcome)
		reqSpan.SetError(spanErr)
		reqSpan.End()
		telemetry.LogIfSlow("request-details", r.Trace, elapsed)
	}

	// A request already abandoned on arrival is stopped before any
	// lookup, decision or fetch runs on its behalf.
	if err := ctx.Err(); err != nil {
		c.auditDetail(r, "cancelled", "", err.Error())
		finish("cancelled", err)
		return nil, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	// The notification record gives us the data subject for the consent
	// check (and proves the event exists). A record that exists but cannot
	// be read — undecodable, undecryptable, or its bytes unreadable from
	// the store — is denied too, and audited as what it is.
	n, err := c.idx.Get(r.EventID)
	if err != nil {
		if errors.Is(err, index.ErrNotFound) {
			c.auditDetail(r, "deny", "", "unknown event id")
			finish("deny", nil)
			return nil, fmt.Errorf("%w: %s", enforcer.ErrUnknownEvent, r.EventID)
		}
		c.auditDetail(r, "deny", "", "event record unreadable")
		finish("deny", nil)
		return nil, err
	}
	_, conSpan := telemetry.StartSpan(ctx, "consent.check")
	allowed := c.con.Allows(n.PersonID, r.Class, r.Requester, r.Purpose)
	conSpan.End()
	if !allowed {
		c.auditDetail(r, "deny", "", "data subject consent")
		finish("deny", nil)
		return nil, ErrConsentDeny
	}

	d, out, err := c.enf.GetEventDetailsContext(ctx, r)
	if err != nil {
		// Neither an unreachable source after a permit nor an abandoned
		// request is a denial: the first is a deferred answer the
		// consumer may retry, the second never got a policy decision.
		// The audit trail keeps all three outcomes distinguishable.
		outcome := "deny"
		switch {
		case errors.Is(err, enforcer.ErrSourceUnavailable):
			outcome = "unavailable"
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			outcome = "cancelled"
			err = fmt.Errorf("%w: %w", ErrCancelled, err)
		}
		var spanErr error
		if outcome != "deny" {
			// A policy denial is a rendered decision, not a failure; only
			// unavailable sources and abandoned requests mark the span.
			spanErr = err
		}
		c.auditDetail(r, outcome, out.PolicyID, out.Reason)
		finish(outcome, spanErr)
		if errors.Is(err, enforcer.ErrDenied) {
			// A policy-gap denial (not consent, not a missing event):
			// surface it to the producer as a pending access request.
			c.pending.note(r.Requester, r.Class, r.Purpose, c.now())
		}
		return nil, err
	}
	if err := c.auditDetail(r, "permit", out.PolicyID, ""); err != nil {
		// Fail closed: a disclosure the audit chain cannot record is not
		// made.
		finish("error", err)
		return nil, err
	}
	finish("permit", nil)
	return d, nil
}

// auditDetail appends the audit record of a detail request. Only the
// permit path acts on its error: every other outcome discloses nothing
// and already returns an error of its own.
func (c *Controller) auditDetail(r *event.DetailRequest, outcome, policyID, note string) error {
	_, err := c.aud.Append(audit.Record{
		At:       c.now(),
		Kind:     audit.KindDetailRequest,
		Actor:    string(r.Requester),
		EventID:  r.EventID,
		Class:    r.Class,
		Purpose:  r.Purpose,
		Outcome:  outcome,
		PolicyID: policyID,
		Note:     note,
		Trace:    r.Trace,
	})
	if err != nil {
		return fmt.Errorf("core: audit detail request: %w", err)
	}
	return nil
}

// --- index inquiry -------------------------------------------------------------

// InquireIndex answers an events index inquiry: "a data consumer can
// query the events index to get the list of notifications it is
// authorized to see without necessarily subscribing" (§4). Results are
// restricted to classes the consumer holds an authorizing policy for, and
// to data subjects whose consent allows the flow; source identifiers are
// redacted.
func (c *Controller) InquireIndex(actor event.Actor, q index.Inquiry) ([]*event.Notification, error) {
	return c.InquireIndexContext(context.Background(), actor, q)
}

// InquireIndexContext is InquireIndex under a request context: an
// inquiry whose caller is gone is refused up front, and the
// authorization filter loop stops scanning on cancellation instead of
// finishing a potentially large result set for nobody.
func (c *Controller) InquireIndexContext(ctx context.Context, actor event.Actor, q index.Inquiry) ([]*event.Notification, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	if err := c.gate(); err != nil {
		return nil, err
	}
	if !c.reg.HasConsumer(actor) {
		return nil, fmt.Errorf("%w: %s", ErrNotConsumer, actor)
	}
	now := c.now()
	// Fast-path denial: an inquiry restricted to a class the actor has no
	// policy for is rejected outright, like a subscription (§5.2: "The
	// inquiry of the event index is managed in the same way").
	trace := telemetry.NewTraceID()
	if q.Class != "" && !c.enf.Repository().AllowsSubscription(actor, q.Class, now) {
		c.aud.Append(audit.Record{
			At: now, Kind: audit.KindIndexInquiry, Actor: string(actor), Class: q.Class, Outcome: "deny",
			Note: "no authorizing policy", Trace: trace,
		})
		return nil, fmt.Errorf("%w: %s on %s", ErrSubscriptionDeny, actor, q.Class)
	}

	limit := q.Limit
	q.Limit = 0 // authorization filtering happens after retrieval
	raw, err := c.idx.Inquire(q)
	if err != nil {
		return nil, err
	}
	var out []*event.Notification
	for i, n := range raw {
		if i%256 == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
		}
		if !c.enf.Repository().AllowsSubscription(actor, n.Class, now) {
			continue
		}
		if !c.con.Allows(n.PersonID, n.Class, actor, "") {
			continue
		}
		out = append(out, n.Redact())
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	if _, err := c.aud.Append(audit.Record{
		At: now, Kind: audit.KindIndexInquiry, Actor: string(actor), Class: q.Class, Outcome: "permit",
		Note: strconv.Itoa(len(out)) + " notifications", Trace: trace,
	}); err != nil {
		// Fail closed, like a detail permit.
		return nil, fmt.Errorf("core: audit index inquiry: %w", err)
	}
	c.met.inquiries.Inc()
	return out, nil
}

// InquireOwn answers a data subject's inquiry over her own events — the
// citizen-facing PHR view of §7. It skips consumer authorization (the
// subject always sees her own index entries) but pins the inquiry to her
// person id and redacts producer-local identifiers. The access is audited
// under the "citizen:" actor prefix.
func (c *Controller) InquireOwn(personID string, q index.Inquiry) ([]*event.Notification, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	if personID == "" {
		return nil, errors.New("core: empty person id")
	}
	q.PersonID = personID
	raw, err := c.idx.Inquire(q)
	if err != nil {
		return nil, err
	}
	out := make([]*event.Notification, 0, len(raw))
	for _, n := range raw {
		out = append(out, n.Redact())
	}
	if _, err := c.aud.Append(audit.Record{
		At: c.now(), Kind: audit.KindIndexInquiry, Actor: "citizen:" + personID, Outcome: "permit",
		Note: strconv.Itoa(len(out)) + " own notifications", Trace: telemetry.NewTraceID(),
	}); err != nil {
		return nil, fmt.Errorf("core: audit index inquiry: %w", err)
	}
	c.met.inquiries.Inc()
	return out, nil
}

// Now returns the controller's current time (its injected clock).
func (c *Controller) Now() time.Time { return c.now() }
