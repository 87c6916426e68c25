package replication

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// NamedStore pairs a store with the name it replicates under. The
// slice order given to PrimaryConfig/FollowerConfig is the dependency
// order of the write path (idmap before index before audit): the
// shipper relies on it for cross-store consistency, and both ends must
// agree on it.
type NamedStore struct {
	Name  string
	Store *store.Store
}

// storeIndex finds a replicated store by name, -1 when unknown.
func storeIndex(stores []NamedStore, name string) int {
	for i, ns := range stores {
		if ns.Name == name {
			return i
		}
	}
	return -1
}

// linkTimeout bounds a follower connect, and each read of the
// handshake that follows it: a follower that accepts and then never
// answers costs its link one bound and a redial, not its shipper.
const linkTimeout = 5 * time.Second

// dialTCP is the default dialer: plain TCP under linkTimeout.
func dialTCP(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, linkTimeout)
}

// handshakeReader puts a fresh linkTimeout read deadline on every read
// while armed. serve reads the handshake through it and disarms it
// before the ship loop, whose ack reads wait as long as the link idles.
type handshakeReader struct {
	conn  net.Conn
	armed bool
}

func (r *handshakeReader) Read(b []byte) (int, error) {
	if r.armed {
		if err := r.conn.SetReadDeadline(time.Now().Add(linkTimeout)); err != nil {
			return 0, err
		}
	}
	return r.conn.Read(b)
}

// ErrClosed reports an operation on a closed Primary.
var ErrClosed = errors.New("replication: closed")

// ErrFenced reports that a follower denied this primary's epoch — a
// newer primary has been promoted and this one must stop claiming the
// role.
var ErrFenced = errors.New("replication: fenced by a newer epoch")

// segmentBytes is the shipping chunk size; a single WAL record larger
// than this still ships whole.
const segmentBytes = 256 << 10

// PrimaryConfig configures the shipping side.
type PrimaryConfig struct {
	// Stores to replicate, in write-path dependency order.
	Stores []NamedStore
	// Epoch is the fencing token stamped on every shipped frame, fixed
	// for the shipper's life: a promotion starts a new Primary.
	Epoch uint64
	// Quorum makes Barrier wait for ⌈N/2⌉ follower fsyncs (N = number
	// of registered followers); false means async shipping and Barrier
	// is a no-op.
	Quorum bool
	// HeartbeatEvery, when positive, sends liveness heartbeats on every
	// follower link at roughly this interval (±20% jitter so a fleet's
	// beats never synchronize), whenever one is due, busy link or idle.
	// Heartbeats carry the epoch and feed the followers' failure
	// detectors; on an async link they also set the follower's fsync
	// cadence. Zero disables them, and makes every link durable.
	HeartbeatEvery time.Duration
	// Metrics registers css_repl_* instruments when set.
	Metrics *telemetry.Registry
	// Dial overrides the follower dialer (chaos tests inject faults
	// here); nil means plain TCP under linkTimeout (5s).
	Dial func(addr string) (net.Conn, error)
	// Logf receives replication lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

// Primary tails the configured stores' WALs and streams them to every
// registered follower, tracking per-follower ack cursors for the quorum
// barrier and the lag gauge.
//
// A link is durable when the primary runs quorum or sends no
// heartbeats: the follower fsyncs before each ack, so an acked offset
// is on its disk. Every other link is async: an acked offset is
// applied, and reaches the follower's disk at the next heartbeat.
type Primary struct {
	cfg  PrimaryConfig
	dial func(addr string) (net.Conn, error)
	logf func(format string, args ...any)

	mu        sync.Mutex
	cond      *sync.Cond
	followers []*followerLink
	closed    bool
	wg        sync.WaitGroup

	lag        *telemetry.Gauge
	acks       *telemetry.Counter
	fenced     *telemetry.Counter
	quorumWait *telemetry.Histogram
}

// followerLink is one follower's replication state. acked offsets are
// guarded by Primary.mu; the ship loop runs in its own goroutine.
type followerLink struct {
	addr      string
	acked     []int64 // per store, parallel to cfg.Stores; acked through
	connected bool
	denied    bool // follower fenced us (saw a newer epoch)
	conn      net.Conn
	stop      chan struct{}
}

// NewPrimary builds the shipping side. Followers are added with
// AddFollower; Close stops everything.
func NewPrimary(cfg PrimaryConfig) (*Primary, error) {
	if len(cfg.Stores) == 0 {
		return nil, errors.New("replication: primary needs at least one store")
	}
	p := &Primary{cfg: cfg, dial: cfg.Dial, logf: cfg.Logf}
	p.cond = sync.NewCond(&p.mu)
	if p.dial == nil {
		p.dial = dialTCP
	}
	if p.logf == nil {
		p.logf = func(string, ...any) {}
	}
	if m := cfg.Metrics; m != nil {
		p.lag = m.Gauge("css_repl_lag_bytes", "Unacked WAL bytes per follower (primary view).", "follower")
		p.acks = m.Counter("css_repl_acks_total", "Follower acknowledgements received; fsync-certified only on durable (quorum or heartbeat-less) links.", "follower")
		p.fenced = m.Counter("css_repl_fenced_total", "Frames or connections rejected for a stale epoch.")
		p.quorumWait = m.Histogram("css_repl_quorum_wait_seconds", "Time publishes spent in the quorum barrier.")
	}
	return p, nil
}

// AddFollower registers a follower address and starts shipping to it
// (connecting, catching up from the follower's announced offsets, and
// reconnecting with backoff for as long as the Primary lives).
func (p *Primary) AddFollower(addr string) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	link := &followerLink{
		addr:  addr,
		acked: make([]int64, len(p.cfg.Stores)),
		stop:  make(chan struct{}),
	}
	p.followers = append(p.followers, link)
	p.wg.Add(1)
	p.mu.Unlock()
	go p.runFollower(link)
}

// runFollower is the per-follower connect/ship/reconnect loop.
func (p *Primary) runFollower(link *followerLink) {
	defer p.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-link.stop:
			return
		default:
		}
		conn, err := p.dial(link.addr)
		if err == nil {
			backoff = 50 * time.Millisecond
			p.mu.Lock()
			if p.closed {
				// Close ran during the dial and found no conn to close.
				p.mu.Unlock()
				conn.Close()
				return
			}
			link.conn = conn
			link.connected = true
			p.mu.Unlock()
			err = p.serve(link, conn)
			conn.Close()
			p.mu.Lock()
			link.conn = nil
			link.connected = false
			p.mu.Unlock()
		}
		if err != nil && !errors.Is(err, net.ErrClosed) {
			p.logf("repl: follower %s: %v", link.addr, err)
		}
		select {
		case <-link.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// shipBuffer is the per-connection write buffer of the ship loop: a
// round's heartbeat and data frames collect in it and leave in one
// write unless they outgrow it.
const shipBuffer = 64 << 10

// serve runs one connection: read the follower's hello, negotiate the
// resume point for every store (ordering a truncate when the follower's
// log diverged — a rejoining deposed primary), then ship WAL segments
// as the stores grow, while a sibling goroutine folds acks into the
// link state.
func (p *Primary) serve(link *followerLink, conn net.Conn) error {
	hs := &handshakeReader{conn: conn, armed: true}
	br := bufio.NewReader(hs)
	msg, err := readMsg(br)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	theirEpoch, offsets, err := decodeCursors(msg, frame.Hello)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if theirEpoch > p.cfg.Epoch {
		p.markFenced(link)
		return fmt.Errorf("%w (follower at epoch %d, we ship %d)", ErrFenced, theirEpoch, p.cfg.Epoch)
	}

	n := len(p.cfg.Stores)
	sh := &shipper{
		stores:  p.cfg.Stores,
		epoch:   p.cfg.Epoch,
		bw:      bufio.NewWriterSize(conn, shipBuffer),
		gens:    make([]uint64, n),
		targets: make([]int64, n),
	}
	for i, ns := range p.cfg.Stores {
		sh.gens[i] = ns.Store.WALGen()
	}
	if sh.cursors, err = p.negotiate(link, sh.bw, br, sh.gens, offsets); err != nil {
		return err
	}
	// Reset the ack state: the hello only proves the follower *applied*
	// those bytes, not that they are fsynced. Quorum counts only acks
	// received on this connection, each of which certifies an fsync on
	// a durable link.
	p.mu.Lock()
	for i := range link.acked {
		link.acked[i] = 0
	}
	p.mu.Unlock()
	// Negotiation over: the follower certifies its (possibly truncated)
	// prefix and the data stream begins, its reads unbounded.
	hs.armed = false
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return fmt.Errorf("syncstart: %w", err)
	}
	durable := p.cfg.Quorum || p.cfg.HeartbeatEvery <= 0
	if err := sendMsg(sh.bw, encodeSyncStartMode(durable)); err != nil {
		return fmt.Errorf("syncstart: %w", err)
	}

	wake := make(chan struct{}, 1)
	for _, ns := range p.cfg.Stores {
		ns.Store.WatchWAL(wake)
	}
	defer func() {
		for _, ns := range p.cfg.Stores {
			ns.Store.UnwatchWAL(wake)
		}
	}()

	ackErr := make(chan error, 1)
	go func() {
		ackErr <- p.readAcks(link, br)
		conn.Close() // unblock a ship-loop write
	}()

	// Heartbeat cadence: first beat immediately (the follower's detector
	// should start sampling as soon as the link is up), then every
	// HeartbeatEvery ±20% jitter.
	var nextBeat time.Time
	hb := p.cfg.HeartbeatEvery
	jittered := func() time.Duration {
		return time.Duration(float64(hb) * (0.8 + 0.4*rand.Float64()))
	}
	beat := encodeEpoch(frame.Heartbeat, p.cfg.Epoch)
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()

	for {
		select {
		case <-link.stop:
			return nil
		case err := <-ackErr:
			return err
		default:
		}
		if hb > 0 && !time.Now().Before(nextBeat) {
			if err := writeMsg(sh.bw, beat); err != nil {
				return fmt.Errorf("heartbeat: %w", err)
			}
			nextBeat = time.Now().Add(jittered())
		}
		progress, err := sh.round()
		if err != nil {
			return err
		}
		p.updateLag(link, sh.targets)
		if progress {
			continue
		}
		wait := 500 * time.Millisecond
		if hb > 0 {
			wait = max(min(wait, time.Until(nextBeat)), time.Millisecond)
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(wait)
		select {
		case <-wake:
		case <-link.stop:
			return nil
		case err := <-ackErr:
			return err
		case <-idle.C:
			// Periodic pass so the lag gauge stays fresh (and the
			// heartbeat fires) even when idle, and a missed edge
			// trigger cannot wedge the loop.
		}
	}
}

// shipper is one connection's ship loop: the cursors negotiated for it,
// the targets of the latest round, the buffered writer every round goes
// out through and the segment buffer every read reuses.
type shipper struct {
	stores  []NamedStore
	epoch   uint64
	bw      *bufio.Writer
	gens    []uint64
	cursors []int64
	targets []int64
	seg     []byte
}

// round ships every byte staged in every store since the last round,
// behind whatever bw already holds (a heartbeat), and flushes it all in
// one write. It reports whether any data frame went out.
func (s *shipper) round() (progress bool, err error) {
	// Capture targets in reverse dependency order, ship in forward
	// order: a record visible in a later store was staged before that
	// store's capture, so its prerequisites in earlier stores fall
	// under their (later) captures — every shipped round is a
	// consistent cut.
	for i := len(s.stores) - 1; i >= 0; i-- {
		s.targets[i] = s.stores[i].Store.WALOffset()
	}
	for i, ns := range s.stores {
		for s.cursors[i] < s.targets[i] {
			seg, err := ns.Store.ReadWALInto(s.seg, s.gens[i], s.cursors[i], segmentBytes)
			if err != nil {
				return false, fmt.Errorf("read %s wal at %d: %w", ns.Name, s.cursors[i], err)
			}
			if seg == nil {
				break
			}
			s.seg = seg
			if err := writeData(s.bw, ns.Name, s.epoch, s.cursors[i], seg); err != nil {
				return false, fmt.Errorf("ship %s: %w", ns.Name, err)
			}
			s.cursors[i] += int64(len(seg))
			progress = true
		}
	}
	if err := s.bw.Flush(); err != nil {
		return false, fmt.Errorf("ship: %w", err)
	}
	return progress, nil
}

// digestBatch bounds one digest request during rejoin negotiation.
const digestBatch = 1024

// negotiate derives the shipping resume point for every store from the
// follower's hello. The fast path is one CRC comparison: when the
// follower's whole-prefix CRC matches the same range of our log, its
// log is a clean prefix and shipping resumes at its offset. Otherwise
// the follower is a rejoining deposed primary whose log carries an
// unreplicated old-epoch suffix: walk its per-record digests against
// our own to the first divergent record — exactly the comparison
// `css-audit -compare` runs over audit chains — and order a truncate
// back to the common prefix before shipping.
func (p *Primary) negotiate(link *followerLink, bw *bufio.Writer, br *bufio.Reader, gens []uint64, offsets []storeOffset) ([]int64, error) {
	cursors := make([]int64, len(p.cfg.Stores))
	for i, ns := range p.cfg.Stores {
		var theirs storeOffset
		for _, o := range offsets {
			if o.name == ns.Name {
				theirs = o
				break
			}
		}
		if theirs.offset == 0 {
			continue // empty follower log: ship from the start
		}
		ourOff := ns.Store.WALOffset()
		if theirs.offset <= ourOff {
			ourCRC, err := ns.Store.CRCWAL(gens[i], 0, theirs.offset)
			if err != nil {
				return nil, fmt.Errorf("crc %s: %w", ns.Name, err)
			}
			if ourCRC == theirs.crc {
				cursors[i] = theirs.offset
				continue
			}
		}
		common, err := p.firstDivergence(bw, br, ns, gens[i], min(theirs.offset, ourOff))
		if err != nil {
			return nil, fmt.Errorf("digest walk %s: %w", ns.Name, err)
		}
		if common < theirs.offset {
			p.logf("repl: follower %s diverged on %s at %d (its log ends at %d): ordering truncate",
				link.addr, ns.Name, common, theirs.offset)
			if err := sendMsg(bw, encodeStoreOffset(frame.Truncate, ns.Name, common)); err != nil {
				return nil, fmt.Errorf("truncate %s: %w", ns.Name, err)
			}
			name, acked, err := p.readAck(br)
			if err != nil {
				return nil, fmt.Errorf("truncate ack %s: %w", ns.Name, err)
			}
			if name != ns.Name || acked != common {
				return nil, fmt.Errorf("truncate %s to %d acknowledged as (%s, %d)", ns.Name, common, name, acked)
			}
		}
		cursors[i] = common
	}
	return cursors, nil
}

// firstDivergence walks the follower's per-record digests against our
// own log and returns the end offset of the last record both sides
// agree on (the truncation point), never past limit.
func (p *Primary) firstDivergence(bw *bufio.Writer, br *bufio.Reader, ns NamedStore, gen uint64, limit int64) (int64, error) {
	var common int64
	pos := int64(0)
	for pos < limit {
		if err := sendMsg(bw, encodeDigestReq(ns.Name, pos, digestBatch)); err != nil {
			return 0, err
		}
		msg, err := readMsg(br)
		if err != nil {
			return 0, err
		}
		name, done, theirs, err := decodeDigests(msg)
		if err != nil {
			return 0, err
		}
		if name != ns.Name {
			return 0, fmt.Errorf("digests for %q while walking %q", name, ns.Name)
		}
		if len(theirs) == 0 {
			return common, nil
		}
		ours, err := ns.Store.DigestWAL(gen, pos, len(theirs))
		if err != nil {
			return 0, err
		}
		for j := range theirs {
			if j >= len(ours) || theirs[j].end != ours[j].End || theirs[j].crc != ours[j].CRC {
				return common, nil
			}
			common = ours[j].End
		}
		pos = common
		if done {
			return common, nil
		}
	}
	return common, nil
}

// readAck reads one frame and expects it to be an ack — the truncate
// confirmation during rejoin negotiation. A deny frame fences us;
// anything else is a protocol error.
func (p *Primary) readAck(br *bufio.Reader) (string, int64, error) {
	msg, err := readMsg(br)
	if err != nil {
		return "", 0, err
	}
	if ep, derr := decodeEpoch(msg, frame.Deny); derr == nil {
		return "", 0, fmt.Errorf("%w (follower holds epoch %d)", ErrFenced, ep)
	}
	name, offset, err := decodeStoreOffset(msg, frame.Ack)
	if err != nil {
		return "", 0, err
	}
	return name, offset, nil
}

// readAcks folds the follower's ack stream into the link state until
// the connection breaks or the follower fences us.
func (p *Primary) readAcks(link *followerLink, br *bufio.Reader) error {
	var buf []byte
	for {
		msg, err := readMsgInto(br, buf)
		if err != nil {
			return err
		}
		buf = msg
		if ep, derr := decodeEpoch(msg, frame.Deny); derr == nil {
			p.markFenced(link)
			return fmt.Errorf("%w (follower %s holds epoch %d)", ErrFenced, link.addr, ep)
		}
		name, offset, err := decodeStoreOffset(msg, frame.Ack)
		if err != nil {
			return fmt.Errorf("ack: %w", err)
		}
		idx := storeIndex(p.cfg.Stores, name)
		if idx < 0 {
			return fmt.Errorf("ack for unknown store %q", name)
		}
		p.mu.Lock()
		if offset > link.acked[idx] {
			link.acked[idx] = offset
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		if p.acks != nil {
			p.acks.Inc(link.addr)
		}
	}
}

func (p *Primary) markFenced(link *followerLink) {
	p.mu.Lock()
	link.denied = true
	p.cond.Broadcast()
	p.mu.Unlock()
	if p.fenced != nil {
		p.fenced.Inc()
	}
}

// Fenced reports whether any follower rejected this primary's epoch —
// the signal a deposed primary uses to stand down.
func (p *Primary) Fenced() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.followers {
		if l.denied {
			return true
		}
	}
	return false
}

func (p *Primary) updateLag(link *followerLink, targets []int64) {
	if p.lag == nil {
		return
	}
	var total, acked int64
	p.mu.Lock()
	for i := range targets {
		total += targets[i]
		acked += link.acked[i]
	}
	p.mu.Unlock()
	lag := total - acked
	if lag < 0 {
		lag = 0
	}
	p.lag.Set(float64(lag), link.addr)
}

// Barrier implements the quorum durability mode: it blocks until
// ⌈N/2⌉ followers have fsynced every byte staged in every store before
// the call, then returns. In async mode (or with no followers) it
// returns immediately. The publish path overlaps it with bus fan-out,
// so in the common case the acks have already arrived by the time the
// barrier is reached.
func (p *Primary) Barrier(ctx context.Context) error {
	if !p.cfg.Quorum {
		return nil
	}
	n := len(p.cfg.Stores)
	targets := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		targets[i] = p.cfg.Stores[i].Store.WALOffset()
	}
	p.mu.Lock()
	need := (len(p.followers) + 1) / 2
	p.mu.Unlock()
	if need == 0 {
		return nil
	}
	start := time.Now()
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-ctx.Done():
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		case <-stopWatch:
		}
	}()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return ErrClosed
		}
		covered := 0
		for _, l := range p.followers {
			ok := true
			for i := range targets {
				if l.acked[i] < targets[i] {
					ok = false
					break
				}
			}
			if ok {
				covered++
			}
		}
		if covered >= need {
			if p.quorumWait != nil {
				p.quorumWait.ObserveDuration(time.Since(start))
			}
			return nil
		}
		// Followers that denied this primary's epoch will never ack: when
		// the survivors cannot reach quorum, the barrier cannot complete.
		// Failing fast here is what actually rejects a deposed primary's
		// writes — waiting out the caller's deadline would just stall the
		// split brain instead of stopping it.
		denied := 0
		for _, l := range p.followers {
			if l.denied {
				denied++
			}
		}
		if len(p.followers)-denied < need {
			return fmt.Errorf("replication: quorum barrier: %w", ErrFenced)
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("replication: quorum barrier: %w", err)
		}
		p.cond.Wait()
	}
}

// followerStatus snapshots every follower link for Node.Status.
func (p *Primary) followerStatus() []FollowerStatus {
	var total int64
	for _, ns := range p.cfg.Stores {
		total += ns.Store.WALOffset()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FollowerStatus, 0, len(p.followers))
	for _, l := range p.followers {
		fs := FollowerStatus{Addr: l.addr, Connected: l.connected, Fenced: l.denied, LagBytes: total}
		for _, acked := range l.acked {
			fs.LagBytes -= acked
		}
		if fs.LagBytes < 0 {
			fs.LagBytes = 0
		}
		out = append(out, fs)
	}
	return out
}

// Close stops every follower loop and wakes barrier waiters with
// ErrClosed. Idempotent.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for _, l := range p.followers {
		close(l.stop)
		if l.conn != nil {
			l.conn.Close()
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}
