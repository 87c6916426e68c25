package replication

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Roles a Node runs in (NodeConfig.Role and Status.Role).
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// Election states, reported by Status while NodeConfig.Election is on.
// watching and campaigning are the two faces of the replica role;
// leader is the primary role.
const (
	StateWatching    = "watching"
	StateCampaigning = "campaigning"
	StateLeader      = "leader"
)

const (
	stateWatching int32 = iota
	stateCampaigning
	stateLeader
)

var stateNames = [...]string{StateWatching, StateCampaigning, StateLeader}

// ErrNotReplica reports Promote on a node that already holds the
// primary role.
var ErrNotReplica = errors.New("replication: node is not a replica")

// NodeConfig configures a Node. Role, Stores and Promote (on a replica)
// are required; everything else has defaults.
type NodeConfig struct {
	// Role is the role the node boots in: RolePrimary or RoleReplica.
	Role string
	// DataDir holds the durable epoch cell (election.epoch). The node
	// boots at max(1, persisted) on either role.
	DataDir string
	// Stores to replicate, in write-path dependency order.
	Stores []NamedStore
	// Listen is the TCP address a replica's WAL-stream follower (and
	// vote endpoint) listens on; port 0 picks an ephemeral one.
	Listen string
	// Peers are the other nodes' follower listener addresses: the
	// shipping targets once this node holds the primary role, and the
	// electorate while it is a replica.
	Peers []string
	// Quorum makes every publish wait for ⌈N/2⌉ follower fsyncs while
	// this node ships.
	Quorum bool
	// Election arms the failure detector and campaign loop on a replica.
	Election bool
	// HeartbeatEvery is the liveness beacon cadence on shipping links,
	// an async follower's fsync cadence (zero disables beacons and makes
	// every link durable), and the detector's prior mean (default
	// 100ms).
	HeartbeatEvery time.Duration
	// SuspectAfter is the silence floor: suspicion never fires before
	// this much time since the last contact, however high phi climbs.
	// Default 2s.
	SuspectAfter time.Duration
	// Phi is the accrual suspicion threshold. Default 8.
	Phi float64
	// LeaseFor bounds one campaign: grants that arrive after the lease
	// window are discarded, never counted. Default 1s.
	LeaseFor time.Duration
	// Backoff is the base for the jittered pre-campaign delay and the
	// post-loss retry delay (Raft-style randomized timeouts, so two
	// candidates that tied at epoch E diverge at E+1). Default
	// LeaseFor/2.
	Backoff time.Duration
	// ClusterSize is the number of voting replicas including this node;
	// a candidate needs floor(ClusterSize/2)+1 grants, its own durable
	// claim included. Defaults to len(Peers)+1. The floor form is a
	// strict majority for every N — for odd N it equals ⌈N/2⌉, and for
	// even N it is one more, closing the 2-replica hole where N/2 grants
	// would let both sides win.
	ClusterSize int
	// Seed fixes the jitter source for deterministic tests; 0 seeds from
	// the clock.
	Seed int64
	// Dial overrides the dialer for shipping and campaigning (chaos
	// tests inject faults and partitions here); nil means plain TCP with
	// a 5s connect timeout.
	Dial func(addr string) (net.Conn, error)
	// Promote readies the controller for the primary role (recovering
	// the state it derives from the replicated stores). It runs after
	// the epoch is fenced and before the role flips, with the node's
	// transition lock held: it must not call back into the Node.
	Promote func() error
	// OnApply, when set, runs after every applied segment with the
	// store's name (see FollowerConfig.OnApply).
	OnApply func(storeName string)
	// Probe, when set, is the second failure-detection channel: a check
	// of the primary over HTTP (GET /ws/replstatus). It runs only once
	// the heartbeat channel is already suspect, and a success counts as
	// contact — the node campaigns only when both channels are silent.
	Probe func(ctx context.Context) error
	// OnPromoted, when set, observes each completed promotion (elected
	// or manual) with its epoch, after the node started shipping.
	OnPromoted func(epoch uint64)
	// Metrics registers css_repl_* and css_election_* instruments.
	Metrics *telemetry.Registry
	// Tracer, when set, records one span per campaign with grant/outcome
	// events, linked into the exported span stream.
	Tracer *telemetry.Tracer
	// Logf receives replication lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

// Node owns one process's replication life: its role, its one durable
// fencing epoch, the WAL shipper while it leads, the stream follower
// and vote endpoint while it follows, and the failure detector and
// campaign loop that turn a follower into a leader.
//
// A replica watches the primary's heartbeats with a phi-accrual
// detector (and an optional HTTP probe); when both channels go silent it
// claims the next epoch and campaigns among its peers, and a majority of
// durable grants promotes it through the same Promote transition the
// manual /ws/promote override drives: fence (raise the epoch), ready
// the controller, start shipping to the peers, flip the role.
// Split-brain safety rests on the epoch: a voter that grants epoch E
// raises its own epoch to E, so a deposed primary's frames — and any
// rival candidate at the same epoch — are denied by the very quorum
// that elected the winner.
type Node struct {
	cfg   NodeConfig
	epoch *epochCell
	det   *detector
	logf  func(format string, args ...any)

	// state is the node's role: stateLeader is the primary role, the
	// other two the replica role.
	state atomic.Int32
	won   atomic.Uint64
	lost  atomic.Uint64

	// mu serialises the transitions that must not interleave: granting
	// a vote, claiming an epoch, promoting, closing.
	mu       sync.Mutex
	closed   bool
	follower *Follower               // nil on a node booted primary
	shipper  atomic.Pointer[Primary] // set while the node leads and has peers

	rngMu sync.Mutex
	rng   *rand.Rand

	stop chan struct{}
	wg   sync.WaitGroup

	stateGauge *telemetry.Gauge
	campaigns  *telemetry.Counter
	suspicions *telemetry.Counter
	grants     *telemetry.Counter
}

// NewNode validates cfg, applies defaults, opens the epoch cell and
// starts the node in its boot role: a primary begins shipping to its
// peers, a replica begins listening (and, with Election, watching).
func NewNode(cfg NodeConfig) (*Node, error) {
	if len(cfg.Stores) == 0 {
		return nil, errors.New("replication: node needs at least one store")
	}
	if cfg.ClusterSize <= 0 {
		cfg.ClusterSize = len(cfg.Peers) + 1
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2 * time.Second
	}
	if cfg.Phi <= 0 {
		cfg.Phi = 8
	}
	if cfg.LeaseFor <= 0 {
		cfg.LeaseFor = time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = cfg.LeaseFor / 2
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	n := &Node{
		cfg:  cfg,
		det:  newDetector(cfg.HeartbeatEvery),
		logf: cfg.Logf,
		rng:  rand.New(rand.NewSource(seed)),
		stop: make(chan struct{}),
	}
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	var path string
	if cfg.DataDir != "" {
		path = filepath.Join(cfg.DataDir, epochFile)
	}
	var err error
	if n.epoch, err = openEpoch(path, 1, cfg.Metrics); err != nil {
		return nil, err
	}
	if reg := cfg.Metrics; reg != nil && cfg.Election {
		n.stateGauge = reg.Gauge("css_election_state", "Election state: 0 watching, 1 campaigning, 2 leader.")
		n.campaigns = reg.Counter("css_election_campaigns_total", "Campaigns run, by outcome.", "outcome")
		n.suspicions = reg.Counter("css_election_suspicions_total", "Times the failure detector crossed the suspicion threshold.")
		n.grants = reg.Counter("css_election_grants_total", "Votes this node granted to campaigning candidates.")
	}
	switch cfg.Role {
	case RolePrimary:
		n.state.Store(stateLeader)
		if err := n.ship(n.epoch.Load()); err != nil {
			return nil, err
		}
	case RoleReplica:
		if cfg.Promote == nil {
			return nil, errors.New("replication: a replica node needs Promote")
		}
		n.follower, err = newFollower(cfg.Listen, FollowerConfig{
			Stores: cfg.Stores, OnApply: cfg.OnApply, Metrics: cfg.Metrics, Logf: cfg.Logf,
		}, n.epoch, n)
		if err != nil {
			return nil, err
		}
		if cfg.Election {
			// Prime the detector at boot: a primary that never makes
			// contact is suspect once the boot silence crosses the
			// threshold, so a replica restarted into a dead cluster can
			// still call the election.
			n.det.Observe(time.Now())
			n.wg.Add(1)
			go n.run()
		}
	default:
		return nil, fmt.Errorf("replication: unknown role %q (want %s or %s)", cfg.Role, RolePrimary, RoleReplica)
	}
	return n, nil
}

// IsReplica reports whether the node currently holds the replica role
// (its controller refuses writes).
func (n *Node) IsReplica() bool { return n.state.Load() != stateLeader }

// Addr returns a replica's bound follower listen address ("" on a node
// booted primary) — what peers name in their Peers lists.
func (n *Node) Addr() string {
	if n.follower == nil {
		return ""
	}
	return n.follower.Addr()
}

// Quorum reports whether Barrier waits for follower fsyncs. The publish
// path checks it before spending a goroutine on the overlapped barrier.
func (n *Node) Quorum() bool {
	p := n.shipper.Load()
	return p != nil && p.cfg.Quorum
}

// Barrier is the quorum durability wait of the shipper this node leads
// with (see Primary.Barrier); a node that ships to nobody returns at
// once.
func (n *Node) Barrier(ctx context.Context) error {
	if p := n.shipper.Load(); p != nil {
		return p.Barrier(ctx)
	}
	return nil
}

// ship starts the WAL shipper at epoch and points it at the peers.
func (n *Node) ship(epoch uint64) error {
	if len(n.cfg.Peers) == 0 {
		return nil
	}
	p, err := NewPrimary(PrimaryConfig{
		Stores: n.cfg.Stores, Epoch: epoch, Quorum: n.cfg.Quorum,
		HeartbeatEvery: n.cfg.HeartbeatEvery,
		Metrics:        n.cfg.Metrics, Dial: n.cfg.Dial, Logf: n.cfg.Logf,
	})
	if err != nil {
		return err
	}
	for _, addr := range n.cfg.Peers {
		p.AddFollower(addr)
	}
	n.shipper.Store(p)
	return nil
}

// Promote is the one replica → primary transition, shared by a won
// election and the manual /ws/promote override: fence (durably raise
// the epoch, so the deposed primary's frames are denied even if it is
// still up), ready the controller, start shipping to the peers, flip the
// role. An epoch below the one the node already holds is refused — a
// newer primary may exist at it.
func (n *Node) Promote(epoch uint64) error {
	n.mu.Lock()
	if err := n.promoteLocked(epoch); err != nil {
		n.mu.Unlock()
		return err
	}
	n.mu.Unlock()
	if n.cfg.OnPromoted != nil {
		n.cfg.OnPromoted(epoch)
	}
	return nil
}

func (n *Node) promoteLocked(epoch uint64) error {
	if n.closed {
		return ErrClosed
	}
	if !n.IsReplica() {
		return ErrNotReplica
	}
	if cur := n.epoch.Load(); epoch < cur {
		return fmt.Errorf("%w: promote at epoch %d, node holds %d", ErrFenced, epoch, cur)
	}
	if _, err := n.epoch.Raise(epoch); err != nil {
		return err
	}
	if err := n.cfg.Promote(); err != nil {
		return err
	}
	if err := n.ship(epoch); err != nil {
		return err
	}
	n.setState(stateLeader)
	return nil
}

// vote decides a campaign the follower already found up to date: grant
// iff this node does not lead and the epoch is strictly above its own,
// which the grant then durably becomes — at most one grant per epoch,
// shared with the node's own claims so a candidate can never also grant
// a rival at its claimed epoch. A node that holds the leader role
// refuses outright: the cluster already has a primary, and a
// partitioned rival must not be voted into a second one — operators
// keep POST /ws/promote for deliberate depositions. A grant counts as
// contact, so the voter does not campaign against the candidate it just
// elected before that candidate's first heartbeat arrives.
func (n *Node) vote(epoch uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.IsReplica() {
		return false
	}
	ok, err := n.epoch.Raise(epoch)
	if err != nil {
		n.logf("election: persisting grant for epoch %d: %v", epoch, err)
		return false
	}
	if ok {
		n.det.Observe(time.Now())
		if n.grants != nil {
			n.grants.Inc()
		}
	}
	return ok
}

// claim is the self-grant: durably raise the epoch by one before asking
// anyone, which also blocks this node from granting any rival the same
// epoch. It re-checks suspicion under the transition lock, so a vote
// granted (or a primary heard from) during the pre-campaign delay
// stands the campaign down. Returns 0 when there is nothing to claim.
func (n *Node) claim() (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.IsReplica() || !n.suspect(time.Now()) {
		return 0, nil
	}
	epoch := n.epoch.Load() + 1
	ok, err := n.epoch.Raise(epoch)
	if err != nil {
		return 0, err
	}
	if !ok {
		// A primary's frame at a higher epoch was adopted between the
		// load and the raise: there is a leader to follow.
		return 0, nil
	}
	n.setState(stateCampaigning)
	return epoch, nil
}

// FollowerStatus is one follower's view for Status.
type FollowerStatus struct {
	Addr      string
	Connected bool
	Fenced    bool
	LagBytes  int64
}

// Status is a point-in-time snapshot for operators (served by the
// transport's replication-status endpoint).
type Status struct {
	Role  string
	Epoch uint64
	// Quorum, Fenced and Followers describe the shipper of a node that
	// leads; Fenced reports that a follower denied its epoch.
	Quorum    bool
	Fenced    bool
	Followers []FollowerStatus
	// Election is the campaign loop's state ("" unless armed), Phi the
	// detector's current suspicion of the primary.
	Election  string
	Phi       float64
	Campaigns uint64 // total campaigns run
	Won       uint64
}

// Status snapshots the node.
func (n *Node) Status() Status {
	state := n.state.Load()
	st := Status{Role: RoleReplica, Epoch: n.epoch.Load()}
	if state == stateLeader {
		st.Role = RolePrimary
	}
	if p := n.shipper.Load(); p != nil {
		st.Quorum = p.cfg.Quorum
		st.Fenced = p.Fenced()
		st.Followers = p.followerStatus()
	}
	if n.cfg.Election {
		st.Election = stateNames[state]
		st.Phi = n.det.Phi(time.Now())
		st.Won = n.won.Load()
		st.Campaigns = st.Won + n.lost.Load()
	}
	return st
}

// Close stops the campaign loop, then the shipper, then the follower
// (fsyncing its applied offsets). Idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	if p := n.shipper.Load(); p != nil {
		p.Close()
	}
	if n.follower != nil {
		return n.follower.Close()
	}
	return nil
}

func (n *Node) setState(s int32) {
	n.state.Store(s)
	if n.stateGauge != nil {
		n.stateGauge.Set(float64(s))
	}
}

// jitter returns a uniformly random duration in [0, d).
func (n *Node) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return time.Duration(n.rng.Int63n(int64(d)))
}

// sleep waits for d or until Close; it reports false when closing.
func (n *Node) sleep(d time.Duration) bool {
	select {
	case <-n.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// suspect reports whether the heartbeat channel is silent past both the
// phi threshold and the hard floor.
func (n *Node) suspect(now time.Time) bool {
	return n.det.Elapsed(now) >= n.cfg.SuspectAfter && n.det.Phi(now) >= n.cfg.Phi
}

// run is the detection loop: tick at half the heartbeat cadence
// (jittered), and when the primary is suspect on the heartbeat channel,
// confirm over the probe channel before campaigning. It ends when the
// node leads — by winning, or by a manual promotion that raced it.
func (n *Node) run() {
	defer n.wg.Done()
	beat := n.cfg.HeartbeatEvery
	if beat <= 0 {
		beat = defaultBeat
	}
	for {
		tick := beat/2 + n.jitter(beat/4)
		if tick < 5*time.Millisecond {
			tick = 5 * time.Millisecond
		}
		if !n.sleep(tick) {
			return
		}
		if !n.IsReplica() {
			n.logf("election: node leads; campaign loop standing down")
			return
		}
		if !n.suspect(time.Now()) {
			continue
		}
		if n.cfg.Probe != nil {
			pctx, cancel := context.WithTimeout(context.Background(), n.probeTimeout())
			err := n.cfg.Probe(pctx)
			cancel()
			if err == nil {
				// The primary answers HTTP: only the repl link is hurt.
				// Count it as contact so phi resets.
				n.det.Observe(time.Now())
				continue
			}
		}
		if n.suspicions != nil {
			n.suspicions.Inc()
		}
		n.logf("election: primary suspect (phi %.1f, silent %s); campaigning",
			n.det.Phi(time.Now()), n.det.Elapsed(time.Now()).Round(time.Millisecond))
		n.campaign()
	}
}

func (n *Node) probeTimeout() time.Duration {
	t := n.cfg.SuspectAfter / 2
	if t > time.Second {
		t = time.Second
	}
	if t < 50*time.Millisecond {
		t = 50 * time.Millisecond
	}
	return t
}

// campaign runs one election round; on a win the node has promoted
// itself by the time it returns.
func (n *Node) campaign() {
	// Randomized pre-campaign delay so simultaneous suspicions diverge;
	// if the primary comes back during it, claim stands down.
	if !n.sleep(n.jitter(n.cfg.Backoff)) {
		return
	}
	epoch, err := n.claim()
	if err != nil {
		n.logf("election: claiming an epoch: %v", err)
		n.outcome("error")
		n.sleep(n.cfg.Backoff + n.jitter(n.cfg.Backoff))
		return
	}
	if epoch == 0 {
		return
	}
	defer func() {
		if n.IsReplica() {
			n.setState(stateWatching)
		}
	}()
	_, span := n.cfg.Tracer.StartSpan(context.Background(), "election.campaign")
	if span != nil {
		span.SetAttr("epoch", fmt.Sprint(epoch))
		defer span.End()
	}

	cursors := n.follower.Offsets()
	need := n.cfg.ClusterSize/2 + 1
	votes := 1 // self, durably claimed above
	n.logf("election: campaigning for epoch %d (%d grants needed of %d voters)", epoch, need, n.cfg.ClusterSize)

	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.LeaseFor)
	defer cancel()
	// A ballot is a peer's answer: its grant, or the epoch it held when
	// it denied (0 when it could not be asked).
	type ballot struct {
		granted bool
		holds   uint64
	}
	results := make(chan ballot, len(n.cfg.Peers))
	for _, addr := range n.cfg.Peers {
		go func(addr string) {
			granted, voterEpoch, err := Campaign(ctx, n.cfg.Dial, addr, epoch, cursors)
			if err != nil {
				n.logf("election: peer %s: %v", addr, err)
				results <- ballot{}
				return
			}
			if !granted {
				n.logf("election: peer %s denied epoch %d (holds %d)", addr, epoch, voterEpoch)
				if span != nil {
					span.AddEvent("election.denied", telemetry.Attr{Key: "peer", Value: addr})
				}
			}
			results <- ballot{granted: granted, holds: voterEpoch}
		}(addr)
	}

	// The lease window (ctx's deadline): grants still in flight when it
	// closes are discarded — they never count, deterministically.
	pending := len(n.cfg.Peers)
	var later uint64 // the latest epoch a denying peer holds
	for votes < need && pending > 0 {
		select {
		case b := <-results:
			pending--
			if b.granted {
				votes++
			} else {
				later = max(later, b.holds)
			}
		case <-ctx.Done():
			pending = 0
		case <-n.stop:
			return
		}
	}

	if votes < need {
		n.logf("election: lost epoch %d (%d/%d grants)", epoch, votes, need)
		n.outcome("lost")
		if span != nil {
			span.AddEvent("election.lost", telemetry.Attr{Key: "votes", Value: fmt.Sprint(votes)})
		}
		// A peer holding a later epoch denies every claim up to it.
		// Adopt it, so that the next claim goes past it: claiming one
		// above our own each round, a node ahead in data could trail a
		// lagging peer's epochs indefinitely, each denying the other.
		if later > epoch {
			if _, err := n.epoch.Raise(later); err != nil {
				n.logf("election: adopting epoch %d: %v", later, err)
			}
		}
		n.sleep(n.jitter(n.cfg.Backoff))
		return
	}

	n.logf("election: won epoch %d with %d/%d grants; promoting", epoch, votes, n.cfg.ClusterSize)
	if span != nil {
		span.AddEvent("election.won", telemetry.Attr{Key: "votes", Value: fmt.Sprint(votes)})
	}
	if err := n.Promote(epoch); err != nil {
		n.logf("election: promote at epoch %d: %v", epoch, err)
		n.outcome("error")
		if span != nil {
			span.SetError(err)
		}
		n.sleep(n.cfg.Backoff + n.jitter(n.cfg.Backoff))
		return
	}
	n.outcome("won")
}

func (n *Node) outcome(o string) {
	switch o {
	case "won":
		n.won.Add(1)
	case "lost":
		n.lost.Add(1)
	}
	if n.campaigns != nil {
		n.campaigns.Inc(o)
	}
}
