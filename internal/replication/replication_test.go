package replication

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/store"
)

// openStores opens the canonical three-store set (write-path dependency
// order) under dir.
func openStores(t *testing.T, dir string) []NamedStore {
	t.Helper()
	out := make([]NamedStore, 0, 3)
	for _, name := range []string{"idmap", "index", "audit"} {
		st, err := store.Open(filepath.Join(dir, name+".wal"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		out = append(out, NamedStore{Name: name, Store: st})
	}
	return out
}

func get(t *testing.T, ns []NamedStore, store, key string) (string, bool) {
	t.Helper()
	for _, s := range ns {
		if s.Name == store {
			v, ok, err := s.Store.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			return string(v), ok
		}
	}
	t.Fatalf("no store %q", store)
	return "", false
}

func waitCaughtUp(t *testing.T, primary []NamedStore, follower []NamedStore, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		ok := true
		for i := range primary {
			if follower[i].Store.WALOffset() != primary[i].Store.WALOffset() {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for i := range primary {
				t.Logf("%s: primary %d follower %d", primary[i].Name,
					primary[i].Store.WALOffset(), follower[i].Store.WALOffset())
			}
			t.Fatal("follower never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShipAndCatchUp(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))

	// Data written before the follower even exists must catch up from
	// offset zero.
	for i := 0; i < 20; i++ {
		ps[0].Store.Put(fmt.Sprintf("pre-%03d", i), []byte("before"))
	}

	applied := make(chan string, 256)
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{
		Stores:  fs,
		OnApply: func(name string) { applied <- name },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(fol.Addr())

	waitCaughtUp(t, ps, fs, 5*time.Second)
	if v, ok := get(t, fs, "idmap", "pre-007"); !ok || v != "before" {
		t.Fatalf("follower idmap pre-007 = %q %v", v, ok)
	}
	select {
	case <-applied:
	default:
		t.Fatal("OnApply never ran")
	}

	// Live writes across all stores, including batches.
	for i := 0; i < 30; i++ {
		ps[0].Store.Put(fmt.Sprintf("id-%03d", i), []byte("x"))
		var b store.Batch
		b.Put(fmt.Sprintf("ev-%03d", i), bytes.Repeat([]byte{byte(i)}, 50))
		b.Put(fmt.Sprintf("pe-%03d", i), []byte("y"))
		if _, err := ps[1].Store.StageApply(&b); err != nil {
			t.Fatal(err)
		}
		ps[2].Store.Put(fmt.Sprintf("a-%03d", i), []byte("audit"))
	}
	waitCaughtUp(t, ps, fs, 5*time.Second)
	if v, ok := get(t, fs, "index", "ev-029"); !ok || len(v) != 50 {
		t.Fatalf("follower index ev-029 = %d bytes, %v", len(v), ok)
	}
	if v, ok := get(t, fs, "audit", "a-029"); !ok || v != "audit" {
		t.Fatalf("follower audit a-029 = %q %v", v, ok)
	}

	// The WALs are byte-identical prefixes (here: fully equal).
	for i := range ps {
		if ps[i].Store.WALOffset() != fs[i].Store.WALOffset() {
			t.Fatalf("%s offsets diverge", ps[i].Name)
		}
	}
}

func TestQuorumBarrier(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs1 := openStores(t, filepath.Join(dir, "f1"))
	fs2 := openStores(t, filepath.Join(dir, "f2"))

	f1, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs1})
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()

	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1, Quorum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(f1.Addr())
	// Second follower not yet listening: quorum of 2 followers is 1, so
	// barriers must pass on f1 alone.
	deadAddr := "127.0.0.1:1"
	pri.AddFollower(deadAddr)

	for i := 0; i < 10; i++ {
		ps[0].Store.Put(fmt.Sprintf("k-%d", i), []byte("v"))
		ps[2].Store.Put(fmt.Sprintf("a-%d", i), []byte("v"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pri.Barrier(ctx); err != nil {
		t.Fatalf("Barrier with one live follower: %v", err)
	}
	// Everything covered by the barrier is fsynced on f1.
	for i := range ps {
		if fs1[i].Store.WALOffset() < ps[i].Store.WALOffset() {
			t.Fatalf("%s: barrier returned before follower held the bytes", ps[i].Name)
		}
	}

	// Kill the only live follower: the next barrier must block until
	// its context expires.
	f1.Close()
	time.Sleep(50 * time.Millisecond)
	ps[0].Store.Put("after-death", []byte("v"))
	short, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel2()
	if err := pri.Barrier(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Barrier with no live followers = %v, want deadline exceeded", err)
	}
	_ = fs2
}

func TestFencingRejectsDeposedPrimary(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))

	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	old, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	old.AddFollower(fol.Addr())

	ps[0].Store.Put("legit", []byte("v"))
	waitCaughtUp(t, ps, fs, 5*time.Second)

	// Failover happened elsewhere: the follower learns the promoted
	// primary's epoch. The deposed primary keeps shipping at epoch 1.
	if _, err := fol.epoch.Raise(2); err != nil {
		t.Fatal(err)
	}
	before := fs[0].Store.WALOffset()

	ps[0].Store.Put("late-write", []byte("poison"))
	deadline := time.Now().Add(5 * time.Second)
	for !old.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("deposed primary never observed the fence")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The late write never lands, no matter how long the deposed
	// primary retries.
	time.Sleep(100 * time.Millisecond)
	if fs[0].Store.WALOffset() != before {
		t.Fatal("fenced primary's late write was applied")
	}
	if _, ok := get(t, fs, "idmap", "late-write"); ok {
		t.Fatal("poison key visible on fenced follower")
	}

	// A promoted primary at the new epoch is accepted and the follower
	// converges on its log.
	fol2dir := filepath.Join(dir, "p2")
	p2s := openStores(t, fol2dir)
	// Rebuild the new primary's state from the follower's bytes (the
	// promoted node IS a follower in real failover; here a fresh one).
	for i, ns := range fs {
		seg, err := ns.Store.ReadWAL(ns.Store.WALGen(), 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if seg != nil {
			if _, err := p2s[i].Store.ApplyWALSegment(0, seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	neo, err := NewPrimary(PrimaryConfig{Stores: p2s, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer neo.Close()
	neo.AddFollower(fol.Addr())
	p2s[0].Store.Put("new-era", []byte("v"))
	waitCaughtUp(t, p2s, fs, 5*time.Second)
	if v, ok := get(t, fs, "idmap", "new-era"); !ok || v != "v" {
		t.Fatalf("follower missing promoted primary's write: %q %v", v, ok)
	}
}

// TestAckNotWithheldBehindHeartbeat is the withheld-ack regression on a
// raw connection: one data frame and one heartbeat written back to back
// land in the follower's read buffer together, and the data frame's ack
// must still arrive without any further traffic.
func TestAckNotWithheldBehindHeartbeat(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	conn, err := net.Dial("tcp", fol.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	br := bufio.NewReader(conn)
	if _, err := readMsg(br); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if err := writeMsg(conn, encodeSyncStart()); err != nil {
		t.Fatal(err)
	}
	for range fs { // the prefix certification: one ack per store
		if _, err := readMsg(br); err != nil {
			t.Fatalf("syncstart ack: %v", err)
		}
	}

	ps[0].Store.Put("k", []byte("v"))
	seg, err := ps[0].Store.ReadWAL(ps[0].Store.WALGen(), 0, segmentBytes)
	if err != nil || seg == nil {
		t.Fatalf("read wal: %d bytes, %v", len(seg), err)
	}
	var both bytes.Buffer
	writeMsg(&both, encodeData("idmap", 1, 0, seg))
	writeMsg(&both, encodeEpoch(frame.Heartbeat, 1))
	if _, err := conn.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(br)
	if err != nil {
		t.Fatalf("no ack for a data frame followed by a heartbeat: %v", err)
	}
	if name, off, err := decodeStoreOffset(msg, frame.Ack); err != nil || name != "idmap" || off != int64(len(seg)) {
		t.Fatalf("ack = (%s, %d, %v), want (idmap, %d)", name, off, err, len(seg))
	}
}

// heldConn delays every data frame until the heartbeat that follows it
// and then writes both at once, so the follower always finds a heartbeat
// buffered right behind the data — the worst case for ack batching.
type heldConn struct {
	net.Conn
	pending []byte // bytes of an incomplete message
	held    []byte // complete data messages waiting for a heartbeat
}

func (c *heldConn) Write(b []byte) (int, error) {
	c.pending = append(c.pending, b...)
	for len(c.pending) >= 4 {
		n := 4 + int(binary.LittleEndian.Uint32(c.pending))
		if len(c.pending) < n {
			break
		}
		msg := c.pending[:n]
		c.pending = c.pending[n:]
		if frameKind(msg[4:]) == frame.Data {
			c.held = append(c.held, msg...)
			continue
		}
		out := append(c.held, msg...)
		c.held = nil
		if _, err := c.Conn.Write(out); err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// TestQuorumBarrierOnIdleHeartbeatLink: with heartbeats riding the link,
// a publish's quorum barrier returns within one heartbeat interval of
// the write — it must not wait for the next data frame to shake the ack
// loose.
func TestQuorumBarrierOnIdleHeartbeatLink(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	const beat = 50 * time.Millisecond
	pri, err := NewPrimary(PrimaryConfig{
		Stores: ps, Epoch: 1, Quorum: true, HeartbeatEvery: beat,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &heldConn{Conn: conn}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(fol.Addr())
	waitCaughtUp(t, ps, fs, 5*time.Second)

	ps[0].Store.Put("idle-link-write", []byte("v"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*beat)
	defer cancel()
	start := time.Now()
	if err := pri.Barrier(ctx); err != nil {
		t.Fatalf("barrier on an idle heartbeat link: %v", err)
	}
	// One interval plus its 20% jitter, plus scheduling slack.
	if took := time.Since(start); took > 2*beat {
		t.Fatalf("barrier took %s, want within one heartbeat interval (%s)", took, beat)
	}
}
