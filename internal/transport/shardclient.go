package transport

// ShardedClient is the cluster-aware SDK: it speaks to every controller
// shard behind one Client-shaped surface. Publishes route to the shard
// that owns the person's pseudonym, computed when the client holds the
// pseudonym function and otherwise guessed and corrected by the
// wrong-shard fault (bounded hops, with a map refresh when the fault
// names a newer version); detail requests go to the one shard the
// event id names; inquiries scatter across the shards and merge with
// stable ordering. Every request goes to a shard's primary. The client
// learns no routes: the shard map is all it routes by, a key's owner
// being its hash scaled over the map's N shards, computed locally.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/consent"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/resilience"
)

// maxRedirects bounds how many wrong-shard redirects one publish
// follows before surfacing the routing error. Two hops suffice for any
// single map change (stale guess → named owner); the third absorbs a
// map flip racing the retry.
const maxRedirects = 3

// ShardedOption configures a ShardedClient.
type ShardedOption func(*shardedOptions)

type shardedOptions struct {
	pseudonym func(string) string
}

// WithPseudonym supplies the pseudonym function (HMAC under the
// cluster's shared master key) so the client computes a publish's
// owning shard locally instead of learning it from redirects. Only
// in-process callers that hold the key can use this — the benchmark
// harness and the smoke suites; remote producers route by redirect.
func WithPseudonym(fn func(personID string) string) ShardedOption {
	return func(o *shardedOptions) { o.pseudonym = fn }
}

// ShardedClient fans a Client per cluster member out of a factory (so
// each member gets its own breaker group and connection pool) and
// routes between them by the cluster's shard map. Every
// request, reads included, goes to a shard's primary and follows its
// not-primary answers; a shard's replicas are asked only for a newer
// map when its primary stops answering.
type ShardedClient struct {
	factory func(cluster.ShardInfo) *Client
	opts    shardedOptions

	mu sync.RWMutex
	m  *cluster.Map
	// clients is keyed by member address, not shard id: a failover
	// changes a shard's primary address, and the address key makes the
	// next write route to a fresh client for the promoted node while
	// the old one ages out with its breaker state intact.
	clients map[string]*Client
}

// NewShardedClient builds a cluster client over the given map. factory
// constructs the per-shard Client — callers install per-shard breaker
// groups and retriers there, exactly as they would for a single
// controller.
func NewShardedClient(m *cluster.Map, factory func(cluster.ShardInfo) *Client, opts ...ShardedOption) (*ShardedClient, error) {
	if m == nil {
		return nil, errors.New("transport: sharded client needs a shard map")
	}
	if factory == nil {
		return nil, errors.New("transport: sharded client needs a client factory")
	}
	var o shardedOptions
	for _, opt := range opts {
		opt(&o)
	}
	return &ShardedClient{
		factory: factory,
		opts:    o,
		m:       m,
		clients: make(map[string]*Client, len(m.Shards())),
	}, nil
}

// Map returns the shard map the client currently routes by.
func (sc *ShardedClient) Map() *cluster.Map {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return sc.m
}

// clientAt returns (building if needed) the Client for one cluster
// member. Replica clients (asked only for the shard map) are
// synthesized from the owning shard's info with the replica's address
// substituted — the factory sees the same shard id either way.
func (sc *ShardedClient) clientAt(info cluster.ShardInfo) *Client {
	sc.mu.RLock()
	cl, ok := sc.clients[info.Addr]
	sc.mu.RUnlock()
	if ok {
		return cl
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if cl, ok := sc.clients[info.Addr]; ok {
		return cl
	}
	cl = sc.factory(info)
	sc.clients[info.Addr] = cl
	return cl
}

// clientFor returns the Client of a shard's primary under the current
// map — the write-path target.
func (sc *ShardedClient) clientFor(id cluster.ShardID) (*Client, error) {
	m := sc.Map()
	info, ok := m.Shard(id)
	if !ok {
		return nil, fmt.Errorf("transport: %w: shard %s not in map v%d", cluster.ErrStaleMap, id, m.Version())
	}
	return sc.clientAt(info), nil
}

// adoptMap swaps in a newer map (member clients persist — they are
// keyed by address, so a failover's primary change routes to the
// promoted node's client on the next write).
func (sc *ShardedClient) adoptMap(next *cluster.Map) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if next.Version() > sc.m.Version() {
		sc.m = next
	}
}

// RefreshMap fetches the shard map from the given shard (any member
// serves it) and adopts it when newer.
func (sc *ShardedClient) RefreshMap(ctx context.Context, from cluster.ShardID) error {
	cl, err := sc.clientFor(from)
	if err != nil {
		return err
	}
	m, err := cl.ShardMap(ctx)
	if err != nil {
		return err
	}
	sc.adoptMap(m)
	return nil
}

// ownerFor picks the shard a person's publishes go to first: computed
// exactly when the pseudonym function is present, otherwise a guess
// (the raw person id over the same hash) that the wrong-shard redirect
// corrects.
func (sc *ShardedClient) ownerFor(personID string) cluster.ShardID {
	m := sc.Map()
	if sc.opts.pseudonym != nil {
		return m.Owner(sc.opts.pseudonym(personID))
	}
	return m.Owner(personID)
}

// Publish routes the notification to the owning shard's primary,
// following wrong-shard redirects (the authoritative owner travels in
// the fault) and not-primary redirects (a failover moved the shard's
// primary) up to maxRedirects hops. A redirect naming a newer map
// version triggers a map refresh from the node that answered — after a
// failover that is the deposed primary, which holds the successor map
// naming its replacement, so one refresh converges the route without a
// redirect loop.
func (sc *ShardedClient) Publish(ctx context.Context, n *event.Notification) (event.GlobalID, error) {
	target := sc.ownerFor(n.PersonID)
	var lastErr, refreshErr error
	for hop := 0; hop <= maxRedirects; hop++ {
		routed := sc.Map().Version()
		cl, err := sc.clientFor(target)
		if err != nil {
			// Only a redirect names a shard the map lacks: the refresh
			// that would have taught it failed (an overload answer, an
			// open breaker, the deadline). A later refresh can succeed,
			// so the publish is retryable, and an ended context is
			// named, so a caller that keeps its work on a deadline (the
			// relay's outbox) keeps it.
			return "", resilience.MarkRetryable(errors.Join(err, refreshErr, ctx.Err()))
		}
		gid, err := cl.Publish(ctx, n)
		if err == nil {
			return gid, nil
		}
		lastErr = err
		var np *cluster.NotPrimaryError
		var ws *cluster.WrongShardError
		switch {
		case errors.As(err, &np):
			// Right shard, wrong role: converge the route and retry the
			// same shard — clientFor then resolves the promoted
			// primary's address. With no newer map to route by, the
			// retry would meet the same node (a lone replica, a demoted
			// primary awaiting its successor), so the fault stands.
			if !sc.refreshOnNotPrimary(ctx, target, np.Version, routed) {
				return "", err
			}
		case errors.As(err, &ws):
			// Refresh when the fault names a newer map — unrelated
			// routes benefit too — and follow the redirect either way.
			if ws.Version > sc.Map().Version() {
				refreshErr = sc.RefreshMap(ctx, target)
			}
			target = ws.Owner
		case ctx.Err() != nil || !sc.refreshFromReplicas(ctx, target):
			// A dead primary answers nothing at all — no fault to follow.
			// Its replicas may hold a newer map (a failover bumps the
			// version and names the promoted primary) to retry by;
			// otherwise the error stands.
			return "", err
		}
	}
	return "", fmt.Errorf("transport: publish exceeded %d shard redirects: %w", maxRedirects, lastErr)
}

// refreshOnNotPrimary converges the route after a not-primary answer.
// A fault naming a newer map version pulls the map from the answering
// node — after a failover that is the deposed primary holding the
// successor map. But a node that answers not-primary with a stale,
// lower-or-equal version (a deposed primary restarted as a replica
// before learning who replaced it) cannot teach us anything: refreshing
// from it would spin the bounded retry loop against the same stale
// address. Fall back to the shard's other replicas, which carry the
// successor map once the election commits. Reports whether the client
// now routes by a map newer than routed, the version the refused call
// went by (a concurrent call may have adopted it already).
func (sc *ShardedClient) refreshOnNotPrimary(ctx context.Context, id cluster.ShardID, version, routed uint64) bool {
	if current := sc.Map().Version(); current == routed && version > current {
		sc.RefreshMap(ctx, id)
	} else if current == routed {
		sc.refreshFromReplicas(ctx, id)
	}
	return sc.Map().Version() > routed
}

// refreshFromReplicas asks a shard's replicas for a newer shard
// map when its named primary stopped answering — or answered
// not-primary without a newer map to offer. After a failover the
// survivors carry the successor map naming the promoted primary.
// Reports whether a newer map was adopted (so the caller retries).
func (sc *ShardedClient) refreshFromReplicas(ctx context.Context, id cluster.ShardID) bool {
	m := sc.Map()
	info, ok := m.Shard(id)
	if !ok {
		return false
	}
	for _, addr := range info.Replicas {
		replica := info
		replica.Addr = addr
		nm, err := sc.clientAt(replica).ShardMap(ctx)
		if err != nil || nm.Version() <= m.Version() {
			continue
		}
		sc.adoptMap(nm)
		return sc.Map().Version() > m.Version()
	}
	return false
}

// onPrimary runs one call against a shard's primary, following
// not-primary redirects (refresh, then retry at the shard's current
// primary) up to maxRedirects attempts. Every per-shard leg — broadcast
// writes, inquiries and detail requests — runs in it, so a failover
// mid-call is absorbed.
func onPrimary[T any](ctx context.Context, sc *ShardedClient, id cluster.ShardID, call func(cl *Client) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for hop := 0; hop <= maxRedirects; hop++ {
		routed := sc.Map().Version()
		cl, err := sc.clientFor(id)
		if err != nil {
			return zero, err
		}
		out, err := call(cl)
		var np *cluster.NotPrimaryError
		if !errors.As(err, &np) {
			return out, err
		}
		if !sc.refreshOnNotPrimary(ctx, id, np.Version, routed) {
			return zero, err
		}
		lastErr = err
	}
	return zero, fmt.Errorf("transport: shard %s exceeded %d not-primary retries: %w", id, maxRedirects, lastErr)
}

// RequestDetails asks the shard the event id names, and its answer
// stands: each shard mints only ids the map assigns to it, so no other
// shard holds the event, and no other shard audits the request.
func (sc *ShardedClient) RequestDetails(ctx context.Context, r *event.DetailRequest) (*event.Detail, error) {
	return onPrimary(ctx, sc, sc.Map().Owner(string(r.EventID)), func(cl *Client) (*event.Detail, error) {
		return cl.RequestDetails(ctx, r)
	})
}

// InquireIndex queries the events index across the cluster. When the
// pseudonym function is present and the inquiry names a person, only
// the owning shard is asked; otherwise the inquiry scatters to every
// shard under ctx and the replies merge in stable notification order
// (OccurredAt, then id), capped at q.Limit. When some shards fail the
// merged partial result is returned together with a
// *cluster.PartialError naming the failed shards.
func (sc *ShardedClient) InquireIndex(ctx context.Context, actor event.Actor, q index.Inquiry) ([]*event.Notification, error) {
	m := sc.Map()
	if q.PersonID != "" && sc.opts.pseudonym != nil {
		return sc.inquireOn(ctx, m.Owner(sc.opts.pseudonym(q.PersonID)), actor, q)
	}
	perShard, err := cluster.Gather(ctx, m.Shards(),
		func(ctx context.Context, info cluster.ShardInfo) ([]*event.Notification, error) {
			return sc.inquireOn(ctx, info.ID, actor, q)
		})
	return cluster.MergeNotifications(perShard, q.Limit), err
}

// inquireOn runs one shard's leg of an index inquiry at its primary.
func (sc *ShardedClient) inquireOn(ctx context.Context, id cluster.ShardID, actor event.Actor, q index.Inquiry) ([]*event.Notification, error) {
	return onPrimary(ctx, sc, id, func(cl *Client) ([]*event.Notification, error) {
		return cl.InquireIndex(ctx, actor, q)
	})
}

// Subscribe registers the callback on every shard — a class's events
// land on the shard owning each person, so a consumer that wants the
// class subscribes cluster-wide. The per-shard subscription ids are
// returned for liveness probing; a failure on any shard unwinds
// nothing (probe-and-resubscribe reconciles, as after a restart).
func (sc *ShardedClient) Subscribe(ctx context.Context, actor event.Actor, class event.ClassID, callbackURL string) (map[cluster.ShardID]string, error) {
	ids := make(map[cluster.ShardID]string)
	for _, info := range sc.Map().Shards() {
		id, err := onPrimary(ctx, sc, info.ID, func(cl *Client) (string, error) {
			return cl.Subscribe(ctx, actor, class, callbackURL)
		})
		if err != nil {
			return ids, fmt.Errorf("transport: subscribe on %s: %w", info.ID, err)
		}
		ids[info.ID] = id
	}
	return ids, nil
}

// RecordConsent broadcasts the directive to every shard, in map order,
// so it binds whichever shard owns the person's events. An error on one
// shard leaves the directive applied on the shards before it. Recording
// the same directive again yields the same decision, so a caller
// retries until the broadcast returns nil.
func (sc *ShardedClient) RecordConsent(ctx context.Context, d consent.Directive) (consent.Directive, error) {
	var stored consent.Directive
	for _, info := range sc.Map().Shards() {
		var err error
		stored, err = onPrimary(ctx, sc, info.ID, func(cl *Client) (consent.Directive, error) {
			return cl.RecordConsent(ctx, d)
		})
		if err != nil {
			return consent.Directive{}, fmt.Errorf("transport: consent on %s: %w", info.ID, err)
		}
	}
	return stored, nil
}

// DefinePolicy broadcasts the policy to every shard (policies are
// producer-scoped, not person-scoped, so each shard enforces the same
// corpus).
func (sc *ShardedClient) DefinePolicy(ctx context.Context, p *policy.Policy) (*policy.Policy, error) {
	var stored *policy.Policy
	for _, info := range sc.Map().Shards() {
		var err error
		stored, err = onPrimary(ctx, sc, info.ID, func(cl *Client) (*policy.Policy, error) {
			return cl.DefinePolicy(ctx, p)
		})
		if err != nil {
			return nil, fmt.Errorf("transport: policy on %s: %w", info.ID, err)
		}
	}
	return stored, nil
}
