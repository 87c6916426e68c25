package replication

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/frame"
	"repro/internal/telemetry"
)

// The durability contract of a link, by mode: an async link's acks name
// applied offsets and its follower fsyncs at heartbeat cadence; a
// durable link's (quorum, or heartbeats off) acks name fsynced ones.

// beatGate passes a primary's messages through as written, less the
// heartbeats while muted.
type beatGate struct {
	net.Conn
	muted   atomic.Bool
	pending []byte // bytes of an incomplete message
}

func (c *beatGate) Write(b []byte) (int, error) {
	c.pending = append(c.pending, b...)
	var out []byte
	for len(c.pending) >= 4 {
		n := 4 + int(binary.LittleEndian.Uint32(c.pending))
		if len(c.pending) < n {
			break
		}
		msg := c.pending[:n]
		c.pending = c.pending[n:]
		if c.muted.Load() && frameKind(msg[4:]) == frame.Heartbeat {
			continue
		}
		out = append(out, msg...)
	}
	if len(out) > 0 {
		if _, err := c.Conn.Write(out); err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// asyncLink starts a follower on fs and an async primary on ps whose
// heartbeats (every 10 ms) pass only while the returned gate is open.
// The gate starts closed.
func asyncLink(t *testing.T, ps, fs []NamedStore, reg *telemetry.Registry) (*Primary, *Follower, func(open bool)) {
	t.Helper()
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	var muted atomic.Bool
	muted.Store(true)
	var mu sync.Mutex
	var gates []*beatGate
	pri, err := NewPrimary(PrimaryConfig{
		Stores: ps, Epoch: 1, HeartbeatEvery: 10 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			g := &beatGate{Conn: conn}
			mu.Lock()
			g.muted.Store(muted.Load())
			gates = append(gates, g)
			mu.Unlock()
			return g, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pri.Close() })
	pri.AddFollower(fol.Addr())
	gate := func(open bool) {
		mu.Lock()
		defer mu.Unlock()
		muted.Store(!open)
		for _, g := range gates {
			g.muted.Store(!open)
		}
	}
	return pri, fol, gate
}

// waitAcked blocks until the primary counts every staged byte acked.
func waitAcked(t *testing.T, pri *Primary) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pri.followerStatus()[0].LagBytes != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never acked everything: %+v", pri.followerStatus())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitSynced blocks until every store of fs is fsynced through its end.
func waitSynced(t *testing.T, fs []NamedStore) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		synced := true
		for _, ns := range fs {
			synced = synced && ns.Store.WALSynced() == ns.Store.WALOffset()
		}
		if synced {
			return
		}
		if time.Now().After(deadline) {
			for _, ns := range fs {
				t.Logf("%s: synced %d of %d", ns.Name, ns.Store.WALSynced(), ns.Store.WALOffset())
			}
			t.Fatal("the follower never fsynced what it applied")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncLinkSyncsAtHeartbeat: on an async link the follower acks
// what it applied without an fsync, round after round, until a
// heartbeat arrives; the drain that carries one fsyncs every store
// applied to since.
func TestAsyncLinkSyncsAtHeartbeat(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))
	reg := telemetry.NewRegistry()
	pri, _, gate := asyncLink(t, ps, fs, reg)
	fsyncs := reg.Counter("css_repl_follower_fsyncs_total", "", "store")

	for i := 0; i < 5; i++ {
		for _, ns := range ps[:2] { // idmap and index; audit untouched
			if err := ns.Store.Put(fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		waitCaughtUp(t, ps, fs, 5*time.Second)
		waitAcked(t, pri)
	}
	before := make([]uint64, len(fs))
	for i, ns := range fs {
		before[i] = fsyncs.Value(ns.Name)
		if i < 2 && ns.Store.WALSynced() >= ns.Store.WALOffset() {
			t.Errorf("%s: synced %d of %d after five rounds without a heartbeat, want less",
				ns.Name, ns.Store.WALSynced(), ns.Store.WALOffset())
		}
	}

	gate(true)
	waitSynced(t, fs)
	for i, ns := range fs {
		if got := fsyncs.Value(ns.Name) - before[i]; i < 2 && got == 0 {
			t.Errorf("%s synced with no fsync counted", ns.Name)
		}
	}
	if got := fsyncs.Value("audit") - before[2]; got != 0 {
		t.Errorf("audit, applied to by no round, fsynced %d times at the heartbeat", got)
	}
}

// ackAudit checks, as the follower writes each ack, that the offset it
// names is fsynced. Its counts are read once the connection is served.
type ackAudit struct {
	net.Conn
	stores []NamedStore
	acks   int
	early  []string
}

func (c *ackAudit) Write(b []byte) (int, error) {
	// The follower writes whole messages.
	for rest := b; len(rest) >= 4; {
		n := 4 + int(binary.LittleEndian.Uint32(rest))
		if name, offset, err := decodeStoreOffset(rest[4:n], frame.Ack); err == nil {
			synced := c.stores[storeIndex(c.stores, name)].Store.WALSynced()
			c.acks++
			if offset > synced {
				c.early = append(c.early, fmt.Sprintf("%s acked at %d, synced %d", name, offset, synced))
			}
		}
		rest = rest[n:]
	}
	return c.Conn.Write(b)
}

// TestDurableLinkAcksAreSynced: under quorum, and with heartbeats off,
// every ack the follower sends names an offset it has fsynced.
func TestDurableLinkAcksAreSynced(t *testing.T) {
	for _, tc := range []struct {
		name   string
		quorum bool
		beat   time.Duration
	}{
		{"quorum", true, 5 * time.Millisecond},
		{"no heartbeats", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ps := openStores(t, filepath.Join(dir, "p"))
			fs := openStores(t, filepath.Join(dir, "f"))
			fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer fol.Close()

			// The primary dials a listener of the test's own, whose
			// accepted end the follower's connection handler serves
			// through the audit.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			check := &ackAudit{stores: fs}
			var served sync.WaitGroup
			defer served.Wait()
			var dialed sync.Once
			dial := func(addr string) (net.Conn, error) {
				err := fmt.Errorf("one connection only")
				var conn net.Conn
				dialed.Do(func() {
					var s net.Conn
					if conn, err = net.Dial("tcp", addr); err != nil {
						return
					}
					if s, err = ln.Accept(); err != nil {
						conn.Close()
						return
					}
					check.Conn = s
					served.Add(1)
					go func() {
						defer served.Done()
						fol.handleConn(check)
						s.Close()
					}()
				})
				return conn, err
			}
			pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1, Quorum: tc.quorum, HeartbeatEvery: tc.beat, Dial: dial})
			if err != nil {
				t.Fatal(err)
			}
			defer pri.Close()
			pri.AddFollower(ln.Addr().String())

			for i := 0; i < 20; i++ {
				for _, ns := range ps {
					if err := ns.Store.Put(fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				waitCaughtUp(t, ps, fs, 5*time.Second)
				waitAcked(t, pri)
			}
			pri.Close()
			served.Wait()
			if check.acks < 20 {
				t.Errorf("%d acks seen, want at least one a round", check.acks)
			}
			for _, e := range check.early {
				t.Error(e)
			}
		})
	}
}

// TestAsyncFollowerSurvivesMachineCrash simulates a machine crash of an
// async follower: its WALs cut to what it fsynced, with no Close, boot
// a new follower, which rejoins and ends byte-identical to the primary,
// its audit chain the same as the primary's.
func TestAsyncFollowerSurvivesMachineCrash(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fdir := filepath.Join(dir, "f")
	fs := openStores(t, fdir)
	chain, err := audit.Open(ps[2].Store)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	publish := func(count int) {
		t.Helper()
		for end := n + count; n < end; n++ {
			if err := ps[0].Store.Put(fmt.Sprintf("id-%03d", n), []byte("pseudonym")); err != nil {
				t.Fatal(err)
			}
			if err := ps[1].Store.Put(fmt.Sprintf("e-%03d", n), []byte("record")); err != nil {
				t.Fatal(err)
			}
			if _, err := chain.Append(audit.Record{Kind: audit.KindPublish, Actor: "lab", Outcome: "ok"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pri, _, gate := asyncLink(t, ps, fs, nil)

	// Fsynced at a heartbeat, then applied past it with no beat.
	gate(true)
	publish(10)
	waitCaughtUp(t, ps, fs, 5*time.Second)
	waitSynced(t, fs)
	gate(false)
	time.Sleep(50 * time.Millisecond) // a beat already in flight lands
	publish(10)
	waitCaughtUp(t, ps, fs, 5*time.Second)
	waitAcked(t, pri)

	// The crash: each WAL as the disk holds it, cut to what was fsynced.
	crashed := filepath.Join(dir, "crashed")
	if err := os.Mkdir(crashed, 0o700); err != nil {
		t.Fatal(err)
	}
	for _, ns := range fs {
		synced, applied := ns.Store.WALSynced(), ns.Store.WALOffset()
		if synced == 0 || synced >= applied {
			t.Fatalf("%s: synced %d of %d, want a fsynced prefix short of the applied end", ns.Name, synced, applied)
		}
		data, err := os.ReadFile(filepath.Join(fdir, ns.Name+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, ns.Name+".wal"), data[:synced], 0o600); err != nil {
			t.Fatal(err)
		}
	}

	rs := openStores(t, crashed)
	rebooted, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: rs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rebooted.Close()
	pri.AddFollower(rebooted.Addr())
	publish(5)
	waitCaughtUp(t, ps, rs, 5*time.Second)
	for i := range ps {
		if got, want := walCRC(t, rs[i]), walCRC(t, ps[i]); got != want {
			t.Errorf("%s differs from the primary's after the rejoin: %08x vs %08x", ps[i].Name, got, want)
		}
	}
	rchain, err := audit.Open(rs[2].Store)
	if err != nil {
		t.Fatal(err)
	}
	if err := rchain.Verify(); err != nil {
		t.Fatalf("rejoined audit chain: %v", err)
	}
	want, err := chain.Search(audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rchain.Search(audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != n {
		t.Fatalf("rejoined chain holds %d records, the primary's %d, want %d", len(got), len(want), n)
	}
	for i := range want {
		if got[i].Hash != want[i].Hash || got[i].PrevHash != want[i].PrevHash {
			t.Fatalf("chains fork at seq %d: %s vs %s", want[i].Seq, got[i].Hash, want[i].Hash)
		}
	}
}
