// Package core implements the data controller of the CSS platform — the
// paper's central rooting node (§4, Fig. 2). The controller:
//
//   - supports producers and consumers in joining the platform (event
//     catalog, contracts);
//   - receives and stores notification messages (events index, person
//     identifiers encrypted at rest) and delivers them to authorized
//     subscribers through the service bus;
//   - resolves requests for details by enforcing the producers' privacy
//     policies and retrieving from the source only the accessible fields;
//   - resolves events index inquiries;
//   - maintains logs of every access request for auditing purposes;
//   - records citizen consent directives and honors them on every flow.
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cluster"
	"repro/internal/consent"
	"repro/internal/crypto"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/idmap"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/replication"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Errors reported by the controller.
var (
	ErrNotProducer      = errors.New("core: not a registered producer")
	ErrNotConsumer      = errors.New("core: not a registered consumer")
	ErrSubscriptionDeny = errors.New("core: subscription rejected (no authorizing policy)")
	ErrConsentDeny      = errors.New("core: denied by the data subject's consent")
	ErrNotClassOwner    = errors.New("core: only the producing source may define policies for a class")
	ErrUnknownClass     = errors.New("core: class not declared in the event catalog")
	ErrClosed           = errors.New("core: controller closed")
	// ErrCancelled reports a flow abandoned by its caller (context
	// cancelled or deadline exceeded) — deliberately distinct from every
	// denial error: an abandoned request is not a policy decision, and
	// the audit trail records it as outcome "cancelled", never "deny".
	ErrCancelled = errors.New("core: request cancelled")
)

// Config configures a Controller.
type Config struct {
	// MasterKey is the 32-byte key protecting person identifiers in the
	// events index. Nil generates a fresh random key.
	MasterKey []byte
	// DataDir persists the controller state (index, id map, audit trail,
	// consent registry) under this directory. Empty means in-memory.
	DataDir string
	// Bus configures the event distribution fabric. Its Observer is
	// not read: the controller installs its own, which exports the
	// broker's queue signals as css_bus_* metrics.
	Bus bus.Options
	// DefaultConsent is the consent decision with no recorded directive.
	// CSS deployments use opt-out (true): baseline consent is collected
	// on paper at care intake.
	DefaultConsent bool
	// Now injects a clock, used for publication stamps and validity
	// checks. Nil means time.Now.
	Now func() time.Time
	// Metrics is the telemetry registry the controller records into.
	// Nil creates a private registry (so embedded controllers and tests
	// never share counters); daemons pass telemetry.Default().
	Metrics *telemetry.Registry
	// SpanSampleRate is the head-sampling fraction of traces whose
	// spans are recorded (ring + export). 0 means
	// telemetry.DefaultSampleRate; set 1 to record every span
	// (integration tests, debugging), negative to record none.
	// Latency metrics are observed for every span regardless, and
	// failed or slow spans are tail-kept past the draw.
	SpanSampleRate float64
	// Codec is not read.
	//
	// Deprecated: the service bus carries the decoded notification, so
	// the controller encodes nothing on publish. Each callback delivery
	// encodes in the codec its subscriber chose at subscribe time.
	Codec event.Codec
	// ShardMap makes this controller one shard of a cluster: publishes
	// for person pseudonyms owned by other shards are redirected
	// (cluster.ErrWrongShard). The map is fixed at boot; only a
	// failover's AdoptMap replaces it. Nil (the default) boots a lone
	// controller: shard 0 of a version-0 one-shard map, which owns every
	// key. All shards of one cluster must share MasterKey — the
	// pseudonym partitioning assumes one HMAC keyspace.
	ShardMap *cluster.Map
	// ShardID is this controller's identity within ShardMap. Only read
	// when ShardMap is set, and then it must name a shard of the map:
	// New rejects an id the map leaves out.
	ShardID cluster.ShardID
}

// instruments are the controller's registered telemetry metrics.
type instruments struct {
	published    *telemetry.Counter // css_publish_total
	delivered    *telemetry.Counter // css_deliveries_total
	consentDrops *telemetry.Counter // css_consent_drops_total
	subDenials   *telemetry.Counter // css_subscription_denials_total
	decisions    *telemetry.Counter // css_detail_decisions_total{outcome}
	inquiries    *telemetry.Counter // css_index_inquiries_total

	busDepth    *telemetry.Gauge   // css_bus_queue_depth
	busHWM      *telemetry.Gauge   // css_bus_queue_depth_hwm
	busOverflow *telemetry.Counter // css_bus_overflow_total{policy}

	// The publish and delivery histograms are unlabeled and observed on
	// every publish (deliverySeconds once per subscriber), so they are
	// held as pre-resolved children: no label join, lock or child-map
	// lookup on the hot path.
	publishSeconds  *telemetry.HistogramChild // css_publish_seconds
	deliverySeconds *telemetry.HistogramChild // css_delivery_seconds
	detailSeconds   *telemetry.Histogram      // css_detail_request_seconds{outcome}
	stageSeconds    *telemetry.Histogram      // css_stage_seconds{stage}

	clusterWrongShard *telemetry.Counter // css_cluster_wrong_shard_total
	clusterMapVersion *telemetry.Gauge   // css_cluster_map_version
}

func newInstruments(reg *telemetry.Registry) instruments {
	return instruments{
		published: reg.Counter("css_publish_total",
			"Notifications accepted by the data controller."),
		delivered: reg.Counter("css_deliveries_total",
			"Notifications handed to subscriber handlers."),
		consentDrops: reg.Counter("css_consent_drops_total",
			"Deliveries suppressed by consent or revoked authorization."),
		subDenials: reg.Counter("css_subscription_denials_total",
			"Subscription requests rejected (no authorizing policy)."),
		decisions: reg.Counter("css_detail_decisions_total",
			"Detail-request decisions, by outcome (permit/deny).", "outcome"),
		inquiries: reg.Counter("css_index_inquiries_total",
			"Events-index inquiries answered."),
		busDepth: reg.Gauge("css_bus_queue_depth",
			"Messages currently queued across all bus subscriptions."),
		busHWM: reg.Gauge("css_bus_queue_depth_hwm",
			"High-water mark of css_bus_queue_depth since start."),
		busOverflow: reg.Counter("css_bus_overflow_total",
			"Messages a full subscription queue shed, by policy.",
			"policy"),
		publishSeconds: reg.Histogram("css_publish_seconds",
			"Publish latency (validate, index, audit, route) in seconds.").Child(),
		deliverySeconds: reg.Histogram("css_delivery_seconds",
			"Per-subscriber delivery latency (consent check + handler) in seconds.").Child(),
		detailSeconds: reg.Histogram("css_detail_request_seconds",
			"Detail-request latency in seconds, by outcome.", "outcome"),
		stageSeconds: reg.Histogram("css_stage_seconds",
			"Per-stage latency of traced flows in seconds, by stage.", "stage"),
		clusterWrongShard: reg.Counter("css_cluster_wrong_shard_total",
			"Publishes refused with a wrong-shard redirect to the owning shard."),
		clusterMapVersion: reg.Gauge("css_cluster_map_version",
			"Version of the shard map this controller routes by (0 = a lone controller)."),
	}
}

// Controller is the data controller. Safe for concurrent use.
type Controller struct {
	cfg  Config
	now  func() time.Time
	keys *crypto.Keyring

	reg     *registry.Registry
	enf     *enforcer.Enforcer
	ids     *idmap.Map
	idx     *index.Index
	brk     *bus.Broker
	aud     *audit.Log
	con     *consent.Registry
	pending *pendingBook

	persist persistence

	tel    *telemetry.Registry
	tracer *telemetry.Tracer
	met    instruments

	// shard is the cluster identity (see cluster.go).
	shard shardState

	// Replication (see replica.go): repl is the attached node, which
	// holds this process's role — a replica gates every flow — and
	// runs the quorum barrier; replStores lists the persistent stores in
	// write-path dependency order for replication wiring.
	repl       atomic.Pointer[replication.Node]
	replStores []replication.NamedStore

	mu     sync.Mutex
	subSeq int
	subs   map[string]*Subscription
	closed bool
	stores []*store.Store
}

// New creates a controller.
func New(cfg Config) (*Controller, error) {
	c := &Controller{cfg: cfg, subs: make(map[string]*Subscription)}
	c.now = cfg.Now
	if c.now == nil {
		c.now = time.Now
	}
	c.tel = cfg.Metrics
	if c.tel == nil {
		c.tel = telemetry.NewRegistry()
	}
	c.tracer = telemetry.NewTracer()
	switch {
	case cfg.SpanSampleRate == 0:
		c.tracer.SetSampleRate(telemetry.DefaultSampleRate)
	case cfg.SpanSampleRate < 0:
		c.tracer.SetSampleRate(0)
	default:
		c.tracer.SetSampleRate(cfg.SpanSampleRate)
	}
	c.met = newInstruments(c.tel)
	// Every finished span feeds the per-stage latency histogram, with the
	// trace as exemplar — one recording path for ring, histogram and (when
	// a daemon attaches one) the durable exporter. The hook runs once per
	// span (19 times per 16-subscriber publish), so the per-stage series
	// handles are cached instead of re-resolving labels on every call.
	var stageChildren sync.Map // stage name -> *telemetry.HistogramChild
	c.tracer.SetOnEnd(func(s *telemetry.Span) {
		ch, ok := stageChildren.Load(s.Stage)
		if !ok {
			ch, _ = stageChildren.LoadOrStore(s.Stage, c.met.stageSeconds.Child(s.Stage))
		}
		ch.(*telemetry.HistogramChild).ObserveDurationTrace(s.Duration, s.Trace)
	})

	var err error
	if cfg.MasterKey != nil {
		c.keys, err = crypto.NewKeyring(cfg.MasterKey)
	} else {
		c.keys, _, err = crypto.NewRandomKeyring()
	}
	if err != nil {
		return nil, err
	}

	open := func(name string) (*store.Store, error) {
		if cfg.DataDir == "" {
			return store.OpenMemory(), nil
		}
		st, err := store.Open(filepath.Join(cfg.DataDir, name+".wal"), store.Options{})
		if err != nil {
			return nil, err
		}
		c.stores = append(c.stores, st)
		// The open order below (idmap, index, audit, consent, catalog,
		// policies) is the write-path dependency order replication ships
		// in; see ReplStores.
		c.replStores = append(c.replStores, replication.NamedStore{Name: name, Store: st})
		return st, nil
	}

	idStore, err := open("idmap")
	if err != nil {
		return nil, err
	}
	idxStore, err := open("index")
	if err != nil {
		return nil, err
	}
	audStore, err := open("audit")
	if err != nil {
		return nil, err
	}
	conStore, err := open("consent")
	if err != nil {
		return nil, err
	}

	c.reg = registry.New()
	c.ids = idmap.New(idStore)
	c.idx = index.New(idxStore, c.keys)
	c.aud, err = audit.Open(audStore)
	if err != nil {
		return nil, err
	}
	c.con, err = consent.Open(conStore, cfg.DefaultConsent)
	if err != nil {
		return nil, err
	}
	c.enf, err = enforcer.New(policy.NewRepository(), c.ids)
	if err != nil {
		return nil, err
	}
	// Export the broker's load signals as css_bus_* metrics.
	cfg.Bus.Observer = bus.Observer{
		QueueDepth: func(delta int) { c.met.busDepth.Add(float64(delta)) },
		QueueHWM:   func(depth int) { c.met.busHWM.Set(float64(depth)) },
		Overflow:   func(policy string) { c.met.busOverflow.Inc(policy) },
	}
	c.brk = bus.New(cfg.Bus)
	c.pending = newPendingBook()

	m, id := cfg.ShardMap, cfg.ShardID
	if m == nil {
		if m, err = loneMap(); err != nil {
			return nil, err
		}
		id = 0
	}
	if err := c.initCluster(id, m); err != nil {
		return nil, err
	}

	if cfg.DataDir != "" {
		if c.persist.catalog, err = open("catalog"); err != nil {
			return nil, err
		}
		if c.persist.policies, err = open("policies"); err != nil {
			return nil, err
		}
		if err := c.reload(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Close flushes and shuts down the controller, waiting indefinitely for
// in-flight bus deliveries to settle.
func (c *Controller) Close() error {
	return c.CloseContext(context.Background())
}

// CloseContext is Close bounded by a deadline: a consumer handler wedged
// mid-delivery is abandoned once ctx expires so the stores still fsync
// and close — a graceful drain must not hang on one stuck subscriber.
// Bus messages still queued at close are dropped; Flush first to deliver
// them.
func (c *Controller) CloseContext(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	first := c.brk.CloseContext(ctx)
	for _, st := range c.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Controller) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// --- membership & catalog -------------------------------------------------

// RegisterProducer admits a data source to the platform. Re-registering
// an existing producer is idempotent (the contract is simply confirmed),
// so provisioning scripts can run against a reloaded controller.
func (c *Controller) RegisterProducer(id event.ProducerID, name string) error {
	if err := c.gate(); err != nil {
		return err
	}
	if err := c.reg.RegisterProducer(id, name); err != nil {
		if registryDuplicate(err) {
			return nil
		}
		return err
	}
	return c.persistProducer(id, name)
}

// RegisterConsumer admits a consumer organization. Idempotent like
// RegisterProducer.
func (c *Controller) RegisterConsumer(actor event.Actor, name string) error {
	if err := c.gate(); err != nil {
		return err
	}
	if err := c.reg.RegisterConsumer(actor, name); err != nil {
		if registryDuplicate(err) {
			return nil
		}
		return err
	}
	return c.persistConsumer(actor, name)
}

// DeclareClass installs an event class declaration in the catalog.
// Re-declaring the identical version by the same producer is idempotent;
// a newer version upgrades as usual.
func (c *Controller) DeclareClass(producer event.ProducerID, s *schema.Schema) error {
	if err := c.gate(); err != nil {
		return err
	}
	if err := c.reg.DeclareClass(producer, s); err != nil {
		if s != nil {
			if existing, gerr := c.reg.Class(s.Class()); gerr == nil &&
				existing.Producer == producer && existing.Schema.Version() == s.Version() {
				return nil // idempotent re-declaration
			}
		}
		return err
	}
	return c.persistClass(producer, s)
}

// AttachGateway connects a producer's local cooperation gateway (direct
// or via the web service transport) for detail retrieval.
func (c *Controller) AttachGateway(p event.ProducerID, g enforcer.DetailSource) error {
	if c.isClosed() {
		return ErrClosed
	}
	if !c.reg.HasProducer(p) {
		return fmt.Errorf("%w: %s", ErrNotProducer, p)
	}
	return c.enf.AttachGateway(p, g)
}

// Catalog exposes the event catalog for discovery.
func (c *Controller) Catalog() *registry.Registry { return c.reg }

// Audit exposes the audit log for inquiry and verification.
func (c *Controller) Audit() *audit.Log { return c.aud }

// --- policies ---------------------------------------------------------------

// DefinePolicy stores a privacy policy elicited by a data producer. The
// producer must own the class, and the field set must be a subset of the
// class schema (Definition 2: F ⊆ e_j).
func (c *Controller) DefinePolicy(p *policy.Policy) (*policy.Policy, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	decl, err := c.reg.Class(p.Class)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownClass, p.Class)
	}
	if decl.Producer != p.Producer {
		return nil, fmt.Errorf("%w: %s is owned by %s", ErrNotClassOwner, p.Class, decl.Producer)
	}
	if err := decl.Schema.CheckFields(p.Fields); err != nil {
		return nil, err
	}
	stored, err := c.enf.AddPolicy(p)
	if err != nil {
		return nil, err
	}
	if err := c.persistPolicy(stored); err != nil {
		c.enf.RemovePolicy(stored.ID)
		return nil, err
	}
	// The new policy may satisfy pending access requests (§5: the
	// producer defines the policy in response to the pending request).
	c.pending.resolveBy(stored)
	return stored, nil
}

// RevokePolicy removes a policy.
func (c *Controller) RevokePolicy(id policy.ID) error {
	if err := c.gate(); err != nil {
		return err
	}
	if err := c.enf.RemovePolicy(id); err != nil {
		return err
	}
	return c.unpersistPolicy(id)
}

// Policies returns the policies defined by a producer.
func (c *Controller) Policies(producer event.ProducerID) []*policy.Policy {
	return c.enf.Repository().ByProducer(producer)
}

// --- consent ---------------------------------------------------------------

// RecordConsent stores a citizen consent directive. Consent is checked
// live on every flow; no decision is memoized anywhere that could
// outlive the change.
func (c *Controller) RecordConsent(d consent.Directive) (consent.Directive, error) {
	if err := c.gate(); err != nil {
		return consent.Directive{}, err
	}
	return c.con.Record(d)
}

// ConsentDirectives lists the directives of a data subject.
func (c *Controller) ConsentDirectives(personID string) []consent.Directive {
	return c.con.Directives(personID)
}

// --- telemetry ------------------------------------------------------

// Metrics exposes the controller's telemetry registry (the serving layer
// mounts it at /metrics).
func (c *Controller) Metrics() *telemetry.Registry { return c.tel }

// Spans exposes the in-process span recorder with the per-stage timings
// of recent traced flows.
func (c *Controller) Spans() *telemetry.SpanLog { return c.tracer.Spans() }

// Tracer exposes the controller's tracer; the serving layer attaches it
// to request contexts and daemons attach the durable span exporter.
func (c *Controller) Tracer() *telemetry.Tracer { return c.tracer }

// Healthy reports whether the controller can serve traffic; it backs the
// /healthz endpoint.
func (c *Controller) Healthy() error {
	if c.isClosed() {
		return ErrClosed
	}
	return nil
}

// Flush waits until the bus drained all pending deliveries.
func (c *Controller) Flush(timeout time.Duration) bool {
	return c.brk.Flush(timeout)
}

// FlushContext is Flush under a context; on abort the error names the
// wedged subscriptions (see bus.FlushContext).
func (c *Controller) FlushContext(ctx context.Context) error {
	return c.brk.FlushContext(ctx)
}

// HasSubscription reports whether the subscription id is currently
// registered. Subscriptions live in controller memory, so a restarted
// controller forgets them; remote consumers poll this (GET
// /ws/subscription) to detect the loss and re-subscribe.
func (c *Controller) HasSubscription(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.subs[id]
	return ok
}
