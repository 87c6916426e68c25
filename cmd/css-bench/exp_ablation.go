package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/baseline"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// runE13 ablates design decision D3 (details stay at the producer's
// gateway) against the rejected alternative (a controller-side detail
// cache), and quantifies the deployment cost of remoteness: retrieval
// latency in-process vs over HTTP, and the sensitive bytes held by the
// central node under each design.
func runE13(quick bool) {
	n := pick(quick, 500, 5000)
	lookups := pick(quick, 500, 5000)

	// Shared corpus of details.
	mkDetail := func(i int) *event.Detail {
		return event.NewDetail("c.x", event.SourceID(fmt.Sprintf("s-%06d", i)), "hospital").
			Set("patient-id", fmt.Sprintf("PRS-%05d", i)).
			Set("diagnosis", "chronic condition with a long free-text description").
			Set("therapy", "complex therapy plan 0123456789")
	}
	payloadBytes := 0
	for _, v := range mkDetail(0).Fields {
		payloadBytes += len(v)
	}
	fields := []event.FieldName{"patient-id"}

	// (a) D3 as designed: local gateway.
	gwLocal, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := gwLocal.Persist(mkDetail(i)); err != nil {
			log.Fatal(err)
		}
	}
	localLat := metrics.NewHistogram()
	for i := 0; i < lookups; i++ {
		src := event.SourceID(fmt.Sprintf("s-%06d", i%n))
		localLat.Time(func() {
			if _, err := gwLocal.GetResponse(src, fields); err != nil {
				log.Fatal(err)
			}
		})
	}

	// (b) D3 deployed: the same gateway behind HTTP on loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: transport.NewGatewayServer(gwLocal, telemetry.NewRegistry())}
	go srv.Serve(ln)
	defer srv.Close()
	remote := transport.NewRemoteGateway("http://"+ln.Addr().String(), nil)
	remoteLat := metrics.NewHistogram()
	for i := 0; i < lookups; i++ {
		src := event.SourceID(fmt.Sprintf("s-%06d", i%n))
		remoteLat.Time(func() {
			if _, err := remote.GetResponse(src, fields); err != nil {
				log.Fatal(err)
			}
		})
	}

	// (c) the ablated design: a controller-side cache of full details.
	cache := baseline.NewWarehouse()
	cache.Grant("consumer", "c.x")
	var centralBytes uint64
	for i := 0; i < n; i++ {
		centralBytes += uint64(cache.Load(mkDetail(i)))
	}
	cacheLat := metrics.NewHistogram()
	for i := 0; i < lookups; i++ {
		src := event.SourceID(fmt.Sprintf("s-%06d", i%n))
		cacheLat.Time(func() {
			if _, err := cache.Query("consumer", "c.x", src); err != nil {
				log.Fatal(err)
			}
		})
	}

	tbl := metrics.NewTable("design", "retrieval mean/p50/p95/p99", "sensitive bytes at controller", "legal under dup. prohibition")
	tbl.Row("D3: gateway, in-process", localLat.Summary(), 0, true)
	tbl.Row("D3: gateway, over HTTP", remoteLat.Summary(), 0, true)
	tbl.Row("ablation: controller cache", cacheLat.Summary(), centralBytes, false)
	tbl.Write(os.Stdout)
	fmt.Printf("(corpus: %d details × %d payload bytes)\n", n, payloadBytes)
	fmt.Println("shape: the central cache is fastest but duplicates every sensitive byte")
	fmt.Println("outside the owner's control — prohibited by the regulations the paper cites;")
	fmt.Println("the HTTP hop prices D3's compliance at a fraction of a millisecond.")
}

// runE14 ablates the storage durability mode: WAL append throughput with
// and without fsync-per-write, and recovery time by WAL size.
func runE14(quick bool) {
	n := pick(quick, 2000, 20000)
	dir, err := os.MkdirTemp("", "css-e14-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	tbl := metrics.NewTable("mode", "records", "put k-ops/s", "put mean", "reopen (replay)")
	for _, mode := range []struct {
		name string
		sync bool
		n    int
	}{
		{"buffered (default)", false, n},
		{"fsync per write", true, pick(quick, 200, 2000)},
	} {
		path := filepath.Join(dir, mode.name+".wal")
		st, err := store.Open(path, store.Options{SyncEvery: mode.sync})
		if err != nil {
			log.Fatal(err)
		}
		lat := metrics.NewHistogram()
		start := time.Now()
		for i := 0; i < mode.n; i++ {
			key := fmt.Sprintf("k-%08d", i)
			s := time.Now()
			if err := st.Put(key, []byte("a detail-sized value for the wal record payload")); err != nil {
				log.Fatal(err)
			}
			lat.Record(time.Since(s))
		}
		elapsed := time.Since(start)
		st.Close()

		reopenStart := time.Now()
		r, err := store.Open(path, store.Options{})
		if err != nil {
			log.Fatal(err)
		}
		reopen := time.Since(reopenStart)
		if cnt, _ := r.Len(); cnt != mode.n {
			log.Fatalf("recovery lost records: %d != %d", cnt, mode.n)
		}
		r.Close()
		tbl.Row(mode.name, mode.n, metrics.Rate(mode.n, elapsed)/1000, lat.Mean(), reopen)
	}
	tbl.Write(os.Stdout)
	fmt.Println("shape: fsync-per-write buys power-loss durability at orders of magnitude in")
	fmt.Println("throughput; the deployment default (buffered + crash-safe replay with torn-")
	fmt.Println("tail truncation) matches the paper's availability needs.")
}
