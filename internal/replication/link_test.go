package replication

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/frame"
)

// recordingConn keeps a copy of every Write on a connection. After
// holdNext, the next Write announces itself on held and waits for
// release before it reaches the socket.
type recordingConn struct {
	net.Conn
	mu       sync.Mutex
	writes   [][]byte
	holdNext bool
	held     chan struct{}
	release  chan struct{}
}

func newRecordingConn(c net.Conn) *recordingConn {
	return &recordingConn{Conn: c, held: make(chan struct{}), release: make(chan struct{})}
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	hold := c.holdNext
	c.holdNext = false
	c.mu.Unlock()
	if hold {
		c.held <- struct{}{}
		<-c.release
	}
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(b))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// lastMessages splits everything written on c into length-prefixed
// messages and returns the last k of them, with the number of Write
// calls their bytes were sent in.
func (c *recordingConn) lastMessages(t *testing.T, k int) (msgs [][]byte, writes int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var stream []byte
	var ends []int // where each write ends in stream
	for _, w := range c.writes {
		stream = append(stream, w...)
		ends = append(ends, len(stream))
	}
	var starts []int // where each message starts in stream
	br := bufio.NewReader(bytes.NewReader(stream))
	for pos := 0; pos < len(stream); {
		msg, err := readMsg(br)
		if err != nil {
			t.Fatalf("written bytes do not split into messages at %d: %v", pos, err)
		}
		starts = append(starts, pos)
		msgs = append(msgs, msg)
		pos += 4 + len(msg)
	}
	if len(msgs) < k {
		t.Fatalf("%d messages written, want at least %d", len(msgs), k)
	}
	from := starts[len(starts)-k]
	for _, end := range ends {
		if end > from {
			writes++
		}
	}
	return msgs[len(msgs)-k:], writes
}

// TestRoundAndDrainAreOneWriteEach pins the link's write discipline.
// With the link synced, one record is staged in each of idmap, index and
// audit while the shipper is held inside a write. The round that
// carries them reaches the follower in one write of the primary's, as
// three data frames in store order, and the follower's acks of the drain
// that applies them leave in one write, in the same order.
func TestRoundAndDrainAreOneWriteEach(t *testing.T) {
	dir := t.TempDir()
	ps := openStores(t, filepath.Join(dir, "p"))
	fs := openStores(t, filepath.Join(dir, "f"))
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: fs, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	// The primary dials a listener of the test's own, which hands the
	// accepted end, wrapped too, to the follower's connection handler.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type link struct{ primary, follower *recordingConn }
	links := make(chan link, 1)
	served := make(chan error, 1)
	var dialed sync.Once
	dial := func(addr string) (net.Conn, error) {
		err := fmt.Errorf("one connection only")
		var conn net.Conn
		dialed.Do(func() {
			var c, s net.Conn
			if c, err = net.Dial("tcp", addr); err != nil {
				return
			}
			if s, err = ln.Accept(); err != nil {
				c.Close()
				return
			}
			l := link{newRecordingConn(c), newRecordingConn(s)}
			go func() { served <- fol.handleConn(l.follower) }()
			links <- l
			conn = l.primary
		})
		return conn, err
	}
	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(ln.Addr().String())
	var l link
	select {
	case l = <-links:
	case <-time.After(5 * time.Second):
		t.Fatal("the primary never connected")
	}
	defer func() {
		pri.Close()
		l.follower.Close()
		<-served
	}()

	acked := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for pri.followerStatus()[0].LagBytes != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("follower never acked everything: %+v", pri.followerStatus())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, ns := range ps {
		if err := ns.Store.Put("synced", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, ps, fs, 5*time.Second)
	acked()

	// Hold the shipper inside the write of a one-record round, and
	// stage the measured round behind it.
	l.primary.mu.Lock()
	l.primary.holdNext = true
	l.primary.mu.Unlock()
	if err := ps[0].Store.Put("held", []byte("v")); err != nil {
		t.Fatal(err)
	}
	<-l.primary.held
	from := make([]int64, len(ps))
	for i, ns := range ps {
		from[i] = ns.Store.WALOffset()
		if err := ns.Store.Put("round", bytes.Repeat([]byte{byte(i)}, 100*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	close(l.primary.release)
	waitCaughtUp(t, ps, fs, 5*time.Second)
	acked()

	frames, writes := l.primary.lastMessages(t, len(ps))
	for i, ns := range ps {
		seg, err := ns.Store.ReadWAL(ns.Store.WALGen(), from[i], segmentBytes)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeData(ns.Name, 1, from[i], seg); !bytes.Equal(frames[i], want) {
			got, err := describeFrame(frames[i])
			t.Errorf("frame %d of the round: %s (%v), want data for %s at %d, %d bytes", i, got, err, ns.Name, from[i], len(seg))
		}
	}
	if writes != 1 {
		t.Errorf("the round's %d data frames took %d writes of the primary, want 1", len(ps), writes)
	}

	acks, writes := l.follower.lastMessages(t, len(fs))
	for i, ns := range fs {
		name, offset, err := decodeStoreOffset(acks[i], frame.Ack)
		if err != nil || name != ns.Name || offset != ns.Store.WALOffset() {
			t.Errorf("ack %d of the drain = (%s, %d, %v), want (%s, %d)", i, name, offset, err, ns.Name, ns.Store.WALOffset())
		}
	}
	if writes != 1 {
		t.Errorf("the drain's %d acks took %d writes of the follower, want 1", len(fs), writes)
	}
}

// shortDeadlineConn moves every read deadline set on it to at most
// readBound from now, so a test sees a link's read bound expire without
// waiting out linkTimeout. Clearing the deadline still clears it.
type shortDeadlineConn struct{ net.Conn }

const readBound = 100 * time.Millisecond

func (c shortDeadlineConn) SetReadDeadline(t time.Time) error {
	if limit := time.Now().Add(readBound); !t.IsZero() && t.After(limit) {
		t = limit
	}
	return c.Conn.SetReadDeadline(t)
}

// TestSilentFollowerIsRedialled: a follower that accepts the connection
// and never sends its hello holds the link for one handshake read
// bound, after which the primary drops it and dials again; Close does
// not wait on the silent peer. The dialer shortens the bound to
// readBound.
func TestSilentFollowerIsRedialled(t *testing.T) {
	t.Parallel()
	ps := openStores(t, t.TempDir())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Accept every connection and keep it open, saying nothing.
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	dials := make(chan struct{}, 16)
	pri, err := NewPrimary(PrimaryConfig{Stores: ps, Epoch: 1, Dial: func(addr string) (net.Conn, error) {
		dials <- struct{}{}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return shortDeadlineConn{conn}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	pri.AddFollower(ln.Addr().String())
	// The second dial follows one read bound and one 50ms backoff.
	const wait = 20 * readBound
	deadline := time.After(wait)
	for n := 0; n < 2; n++ {
		select {
		case <-dials:
		case <-deadline:
			t.Fatalf("%d dial(s) in %s: the primary still waits on the silent follower", n, wait)
		}
	}
	closed := make(chan struct{})
	go func() {
		pri.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close blocked on the silent follower's link")
	}
}
