package replication

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// FollowerConfig configures the applying side.
type FollowerConfig struct {
	// Stores to apply into, in the same order as the primary's.
	Stores []NamedStore
	// Epoch seeds a standalone follower's fencing epoch (a Node's
	// follower shares the node's durable one): data frames stamped
	// lower are denied.
	Epoch uint64
	// OnApply, when set, runs after every applied segment with the
	// store's name — the controller refreshes derived in-memory state
	// (consent directives, catalog, policies) here.
	OnApply func(storeName string)
	// Metrics registers css_repl_* instruments when set.
	Metrics *telemetry.Registry
	// Logf receives replication lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

// Follower listens for a primary's replication stream and applies the
// shipped WAL segments into its local stores. On a durable link (the
// primary runs quorum, or sends no heartbeats) it fsyncs before every
// acknowledgement; on an async link it acknowledges what it applied and
// fsyncs when a heartbeat arrives. A frame from an epoch older than the
// node's is denied and the connection dropped; a newer one is adopted.
// It is also the election endpoint: a candidate dials the same
// listener, reads the hello, and sends a campaign frame; whether the
// vote is granted is decided by the Node the follower belongs to.
type Follower struct {
	cfg   FollowerConfig
	ln    net.Listener
	epoch *epochCell
	// node is the Node this follower serves: its detector samples every
	// contact and it decides campaigns. Nil for a standalone follower,
	// which denies every campaign.
	node *Node
	logf func(format string, args ...any)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	applied   *telemetry.Counter
	fenced    *telemetry.Counter
	truncates *telemetry.Counter
	fsyncs    *telemetry.Counter
}

// NewFollower listens on addr (host:port, port 0 for ephemeral) and
// serves replication connections until Close. Its epoch starts at
// cfg.Epoch and lives in memory; a Node's follower shares the node's
// durable cell instead.
func NewFollower(addr string, cfg FollowerConfig) (*Follower, error) {
	epoch, err := openEpoch("", cfg.Epoch, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	return newFollower(addr, cfg, epoch, nil)
}

func newFollower(addr string, cfg FollowerConfig, epoch *epochCell, node *Node) (*Follower, error) {
	if len(cfg.Stores) == 0 {
		return nil, errors.New("replication: follower needs at least one store")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replication: listen %s: %w", addr, err)
	}
	f := &Follower{cfg: cfg, ln: ln, epoch: epoch, node: node, logf: cfg.Logf, conns: make(map[net.Conn]struct{})}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	if m := cfg.Metrics; m != nil {
		f.applied = m.Counter("css_repl_applied_bytes_total", "Replicated WAL bytes applied, per store.", "store")
		f.fenced = m.Counter("css_repl_fenced_total", "Frames or connections rejected for a stale epoch.")
		f.truncates = m.Counter("css_repl_truncates_total", "WAL truncations performed while rejoining as follower.")
		f.fsyncs = m.Counter("css_repl_follower_fsyncs_total", "WAL fsyncs made by this follower, per store.", "store")
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the bound listen address (for -replicate-to flags and
// test wiring).
func (f *Follower) Addr() string { return f.ln.Addr().String() }

// Offsets snapshots the per-store WAL offsets — the catch-up cursor
// this follower would announce, and the measure of "most caught up"
// during failover.
func (f *Follower) Offsets() map[string]int64 {
	out := make(map[string]int64, len(f.cfg.Stores))
	for _, ns := range f.cfg.Stores {
		out[ns.Name] = ns.Store.WALOffset()
	}
	return out
}

func (f *Follower) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conns[conn] = struct{}{}
		f.wg.Add(1)
		f.mu.Unlock()
		go func() {
			defer f.wg.Done()
			err := f.handleConn(conn)
			conn.Close()
			f.mu.Lock()
			delete(f.conns, conn)
			f.mu.Unlock()
			if err != nil && !errors.Is(err, net.ErrClosed) {
				f.logf("repl: primary %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// noteContact feeds the node's failure detector: a live primary at an
// acceptable epoch was heard from.
func (f *Follower) noteContact() {
	if f.node != nil {
		f.node.det.Observe(time.Now())
	}
}

// checkEpoch applies the fencing rule to an incoming frame: deny and
// drop anything below the current epoch, durably adopt anything above
// it. Returns an error when the connection must be closed.
func (f *Follower) checkEpoch(bw *bufio.Writer, epoch uint64) error {
	cur := f.epoch.Load()
	if epoch < cur {
		if f.fenced != nil {
			f.fenced.Inc()
		}
		_ = sendMsg(bw, encodeEpoch(frame.Deny, cur)) // the link drops either way
		return fmt.Errorf("denied stale epoch %d (holding %d)", epoch, cur)
	}
	if epoch > cur {
		if _, err := f.epoch.Raise(epoch); err != nil {
			return err
		}
	}
	return nil
}

// handleConn serves one primary (or candidate) connection: announce
// cursors with prefix CRCs, then dispatch frames. A healthy primary
// sends sync-start and streams data; a primary that found this node's
// log diverged (a rejoining deposed primary) first walks the digest
// exchange and orders a truncate; a candidate sends one campaign frame
// and reads the grant.
func (f *Follower) handleConn(conn net.Conn) error {
	offsets := make([]storeOffset, len(f.cfg.Stores))
	for i, ns := range f.cfg.Stores {
		off := ns.Store.WALOffset()
		var crc uint32
		if off > 0 {
			var err error
			if crc, err = ns.Store.CRCWAL(ns.Store.WALGen(), 0, off); err != nil {
				return fmt.Errorf("hello crc %s: %w", ns.Name, err)
			}
		}
		offsets[i] = storeOffset{name: ns.Name, offset: off, crc: crc}
	}
	c := f.newInbound(bufio.NewReader(conn), bufio.NewWriter(conn))
	// What an async link applied but has not fsynced reaches the disk
	// when the link ends, however it ends: no heartbeat will come.
	defer c.syncUnsynced()
	if err := sendMsg(c.bw, encodeCursors(frame.Hello, f.epoch.Load(), offsets)); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	for {
		// Batch the acks (and a durable link's fsyncs) over every frame
		// already buffered: under a storm one fsync covers many segments
		// (group commit shape). The drain runs whenever the read buffer
		// empties, whatever kind the last frame was — a heartbeat
		// buffered behind a data frame must not withhold that frame's
		// ack until the next write.
		if c.br.Buffered() == 0 {
			if err := c.drain(); err != nil {
				return err
			}
		}
		msg, err := readMsgInto(c.br, c.buf)
		if err != nil {
			return err
		}
		c.buf = msg
		if err := c.handle(msg); err != nil {
			return err
		}
	}
}

// inbound is one connection's state on the follower side: its
// buffered ends, the buffer every message is read into, the link's
// mode, and the stores applied to since the last drain and since the
// last fsync.
type inbound struct {
	f   *Follower
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
	// durable is the mode the sync-start declared: acks certify an
	// fsync. An async link acks applied offsets and fsyncs at the
	// drain after a heartbeat.
	durable bool
	beat    bool   // a heartbeat arrived since the last drain
	touched []bool // per store, parallel to cfg.Stores: to ack
}

func (f *Follower) newInbound(br *bufio.Reader, bw *bufio.Writer) *inbound {
	n := len(f.cfg.Stores)
	return &inbound{f: f, br: br, bw: bw, durable: true, touched: make([]bool, n)}
}

// drain acks every store applied to since the last drain, in
// dependency order, in one write. A durable link fsyncs each store
// before its ack. An async link acks at once and, when a heartbeat
// came in since the last drain, then fsyncs every store whose WAL holds
// bytes not yet fsynced, in the same order.
func (c *inbound) drain() error {
	for i, t := range c.touched {
		if !t {
			continue
		}
		ns := c.f.cfg.Stores[i]
		if c.durable {
			if err := c.f.fsync(ns); err != nil {
				return err
			}
		}
		if err := writeAck(c.bw, ns); err != nil {
			return err
		}
		c.touched[i] = false
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if !c.beat {
		return nil
	}
	c.beat = false
	return c.syncUnsynced()
}

// syncUnsynced fsyncs, in dependency order, every store whose WAL
// holds bytes not yet fsynced.
func (c *inbound) syncUnsynced() error {
	for _, ns := range c.f.cfg.Stores {
		if ns.Store.WALSynced() < ns.Store.WALOffset() {
			if err := c.f.fsync(ns); err != nil {
				return err
			}
		}
	}
	return nil
}

// handle dispatches one message. Data is applied and acked by the next
// drain; every other reply is flushed as it is written.
func (c *inbound) handle(msg []byte) error {
	f := c.f
	switch frameKind(msg) {
	case frame.SyncStart:
		durable, err := decodeSyncStart(msg)
		if err != nil {
			return err
		}
		c.durable = durable
		// Certify the (possibly truncated) prefix, whatever the mode:
		// fsync everything and ack every store once, so quorum
		// accounting on the primary starts from the true durable state
		// instead of waiting for each store's next write.
		for _, ns := range f.cfg.Stores {
			if err := f.fsync(ns); err != nil {
				return err
			}
			if err := writeAck(c.bw, ns); err != nil {
				return err
			}
		}
		return c.bw.Flush()

	case frame.Heartbeat:
		epoch, err := decodeEpoch(msg, frame.Heartbeat)
		if err != nil {
			return err
		}
		if err := f.checkEpoch(c.bw, epoch); err != nil {
			return err
		}
		f.noteContact()
		c.beat = true

	case frame.Campaign:
		epoch, theirs, err := decodeCursors(msg, frame.Campaign)
		if err != nil {
			return err
		}
		granted := f.decideVote(epoch, theirs)
		return sendMsg(c.bw, encodeGrant(granted, f.epoch.Load()))

	case frame.DigestReq:
		name, from, max, err := decodeDigestReq(msg)
		if err != nil {
			return err
		}
		st := f.storeNamed(name)
		if st == nil {
			return fmt.Errorf("digest request for unknown store %q", name)
		}
		if max <= 0 || max > 4096 {
			max = 4096
		}
		ds, err := st.DigestWAL(st.WALGen(), from, max)
		if err != nil {
			return fmt.Errorf("digest %s from %d: %w", name, from, err)
		}
		wire := make([]recordDigest, len(ds))
		end := from
		for i, d := range ds {
			wire[i] = recordDigest{end: d.End, crc: d.CRC}
			end = d.End
		}
		done := len(ds) < max || end >= st.WALOffset()
		return sendMsg(c.bw, encodeDigests(name, done, wire))

	case frame.Truncate:
		name, offset, err := decodeStoreOffset(msg, frame.Truncate)
		if err != nil {
			return err
		}
		st := f.storeNamed(name)
		if st == nil {
			return fmt.Errorf("truncate for unknown store %q", name)
		}
		f.logf("repl: truncating %s back to %d (diverged old-epoch suffix)", name, offset)
		if err := st.TruncateWAL(offset); err != nil {
			return fmt.Errorf("truncate %s to %d: %w", name, offset, err)
		}
		if f.truncates != nil {
			f.truncates.Inc()
		}
		if f.cfg.OnApply != nil {
			f.cfg.OnApply(name)
		}
		return sendMsg(c.bw, encodeStoreOffset(frame.Ack, name, offset))

	case frame.Data:
		// The segment is a slice of the reused read buffer: the store
		// copies what it keeps (the WAL bytes, the keys), and nothing
		// below holds on to seg.
		name, epoch, offset, seg, err := decodeData(msg)
		if err != nil {
			return fmt.Errorf("data: %w", err)
		}
		if err := f.checkEpoch(c.bw, epoch); err != nil {
			return err
		}
		f.noteContact()
		idx := storeIndex(f.cfg.Stores, name)
		if idx < 0 {
			return fmt.Errorf("data for unknown store %q", name)
		}
		if _, err := f.cfg.Stores[idx].Store.ApplyWALSegment(offset, seg); err != nil {
			return fmt.Errorf("apply %s at %d: %w", name, offset, err)
		}
		if f.applied != nil {
			f.applied.Add(uint64(len(seg)), name)
		}
		if f.cfg.OnApply != nil {
			f.cfg.OnApply(name)
		}
		c.touched[idx] = true

	default:
		return fmt.Errorf("unexpected frame type %d", frameKind(msg))
	}
	return nil
}

// fsync fsyncs one store's WAL through its end and counts it.
func (f *Follower) fsync(ns NamedStore) error {
	if err := ns.Store.SyncWAL(); err != nil {
		return err
	}
	if f.fsyncs != nil {
		f.fsyncs.Inc(ns.Name)
	}
	return nil
}

// writeAck writes the ack of the offset one store is applied through;
// the caller flushes.
func writeAck(bw *bufio.Writer, ns NamedStore) error {
	return writeMsg(bw, encodeStoreOffset(frame.Ack, ns.Name, ns.Store.WALOffset()))
}

// decideVote applies the election rules to one campaign: the candidate
// must claim an epoch strictly above this node's (a deposed primary
// re-campaigning with its old epoch always loses), its cursors must be
// at or past this node's on every store (a stale replica can never be
// elected over a more caught-up voter), and the Node must grant — which
// durably raises the epoch to the promised one, so a second candidate
// at the same epoch is denied: at most one grant per epoch per voter.
func (f *Follower) decideVote(epoch uint64, theirs []storeOffset) bool {
	if cur := f.epoch.Load(); epoch <= cur {
		if f.fenced != nil {
			f.fenced.Inc()
		}
		f.logf("repl: denying campaign at epoch %d (holding %d)", epoch, cur)
		return false
	}
	cursor := make(map[string]int64, len(theirs))
	for _, o := range theirs {
		cursor[o.name] = o.offset
	}
	for _, ns := range f.cfg.Stores {
		if cursor[ns.Name] < ns.Store.WALOffset() {
			f.logf("repl: denying campaign at epoch %d: candidate %s cursor %d behind ours %d",
				epoch, ns.Name, cursor[ns.Name], ns.Store.WALOffset())
			return false
		}
	}
	if f.node == nil || !f.node.vote(epoch) {
		f.logf("repl: denying campaign at epoch %d: not this node's to grant", epoch)
		return false
	}
	f.logf("repl: granted epoch %d", epoch)
	return true
}

// storeNamed finds a replicated store by name, nil when unknown.
func (f *Follower) storeNamed(name string) *store.Store {
	if i := storeIndex(f.cfg.Stores, name); i >= 0 {
		return f.cfg.Stores[i].Store
	}
	return nil
}

// Close stops accepting, drops every primary connection, and fsyncs
// each store so the applied-offset checkpoint survives the restart — a
// gracefully drained follower must never re-request frames it already
// durably applied. Idempotent.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	err := f.ln.Close()
	f.wg.Wait()
	for _, ns := range f.cfg.Stores {
		if serr := f.fsync(ns); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
