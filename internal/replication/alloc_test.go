//go:build !race

// The race detector inflates allocation counts, and `make race` runs
// the whole tree under it: the budgets here hold for the plain build.

package replication

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// allocsPer returns the mean allocations of measured over runs, each
// after an unmeasured prepare.
func allocsPer(runs int, prepare, measured func()) float64 {
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		prepare()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		measured()
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total) / float64(runs)
}

// TestLinkAllocBudget gates the garbage of the replication link's two
// steps per publish: one shipped round on the primary (a record staged
// in each of idmap, index and audit, read, framed and flushed, the
// staging not counted) and one applied data frame on the follower (read
// off the connection's buffer, decoded, fenced and applied to a disk
// store, its ack not counted). Lowest of five rounds of 200 runs, budget
// = measured + 5 %, rounded up. Measured 9 and 5 while the shipper read
// each segment into a new slice and built a frame around it and the
// follower read each message into a new slice; 0 and 4 now.
func TestLinkAllocBudget(t *testing.T) {
	const rounds, runs = 5, 200
	dir := t.TempDir()
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100*(i+1)) }

	ps := openStores(t, filepath.Join(dir, "p"))
	sh := &shipper{
		stores: ps, epoch: 1, bw: bufio.NewWriterSize(io.Discard, shipBuffer),
		gens: make([]uint64, len(ps)), cursors: make([]int64, len(ps)), targets: make([]int64, len(ps)),
	}
	for i, ns := range ps {
		sh.gens[i] = ns.Store.WALGen()
	}
	var n int
	stage := func() {
		n++
		key := "k" + strconv.Itoa(n)
		for i, ns := range ps {
			if err := ns.Store.Put(key, value(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ship := func() {
		if progress, err := sh.round(); err != nil || !progress {
			t.Fatalf("round: progress %v, %v", progress, err)
		}
	}

	// The follower's input: one data frame per staged idmap record.
	src := openStores(t, filepath.Join(dir, "src"))[:1]
	var wire bytes.Buffer
	for i := 0; i <= rounds*runs; i++ {
		from := src[0].Store.WALOffset()
		if err := src[0].Store.Put("k"+strconv.Itoa(i), value(0)); err != nil {
			t.Fatal(err)
		}
		seg, err := src[0].Store.ReadWAL(src[0].Store.WALGen(), from, segmentBytes)
		if err != nil {
			t.Fatal(err)
		}
		writeMsg(&wire, encodeData(src[0].Name, 1, from, seg))
	}
	fol, err := NewFollower("127.0.0.1:0", FollowerConfig{Stores: openStores(t, filepath.Join(dir, "f")), Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	in := fol.newInbound(bufio.NewReader(&wire), bufio.NewWriter(io.Discard))
	apply := func() {
		msg, err := readMsgInto(in.br, in.buf)
		if err != nil {
			t.Fatal(err)
		}
		in.buf = msg
		if err := in.handle(msg); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name              string
		prepare, measured func()
		budget            float64
	}{
		{"ship round", stage, ship, 0},
		{"apply data frame", func() {}, apply, 5},
	} {
		tc.prepare() // a warm connection, its buffers grown
		tc.measured()
		got := math.Inf(1)
		for round := 0; round < rounds; round++ {
			got = min(got, allocsPer(runs, tc.prepare, tc.measured))
		}
		t.Logf("%s: %.2f allocs (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s allocates %.2f, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
