// css-gateway runs a producer's local cooperation gateway as a web
// service. The gateway persists every detail message the source system
// hands it (POST /gw/persist) and answers the data controller's filtered
// retrievals (POST /gw/get-response), so details remain available even
// when the source system is offline.
//
// Usage:
//
//	css-gateway -producer hospital -data ./hospital-gw [flags]
//
//	-addr        listen address (default :8081)
//	-producer    owning producer id (required)
//	-data        data directory for the detail store (default: in-memory)
//	-controller  controller base URL; when set, the gateway fetches the
//	             event catalog, validates persisted details against it,
//	             and mounts POST /gw/publish — a publish relay that
//	             forwards notifications to the controller and parks them
//	             in a durable outbox (outbox.wal under -data) while the
//	             controller is unreachable. The relay routes by shard
//	             map, starting from a one-shard map of this URL: a
//	             sharded controller's first redirect teaches it the
//	             fleet's map
//	-pprof       expose net/http/pprof under /debug/pprof/ (opt-in)
//	-log-json    structured JSON logs on stderr (default: text)
//	-max-inflight   global concurrent-request budget (default 256)
//	-actor-rps      per-actor admission rate, requests/second (default 50)
//	-drain-timeout  graceful-shutdown budget on SIGTERM (default 10s):
//	                stop admitting, drain the outbox toward the
//	                controller, fsync and close the stores
//	-span-file      durable span export file (JSONL ring; empty: disabled)
//	-span-sample    head-sampling rate for span recording and export
//	                (default 0.1; failed spans and spans of at least
//	                100ms are always kept, in the ring and the file alike)
//	-codec       wire codec toward the controller for the publish relay
//	             and catalog fetch: "xml" (default) or "binary"
//
// The gateway always serves /metrics (Prometheus text format),
// /healthz, /slo and /debug/spans alongside the /gw/ API.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/identity"
	"repro/internal/overload"
	"repro/internal/resilience"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// fetchedCatalog adapts a fetched schema list to gateway.SchemaSource.
type fetchedCatalog map[event.ClassID]*schema.Schema

func (c fetchedCatalog) Schema(id event.ClassID) (*schema.Schema, error) {
	s, ok := c[id]
	if !ok {
		return nil, fmt.Errorf("class %s not in the fetched catalog", id)
	}
	return s, nil
}

func main() {
	run := daemon.Flags("gateway", "identity authority key (hex); restricts get-response to the controller's token and persist to the producer's")
	addr := flag.String("addr", ":8081", "listen address")
	producer := flag.String("producer", "", "owning producer id (required)")
	dataDir := flag.String("data", "", "data directory (empty: in-memory)")
	controller := flag.String("controller", "", "controller base URL for catalog fetch")
	token := flag.String("token", "", "bearer token for the catalog fetch (auth-enabled controller)")
	controllerActor := flag.String("controller-actor", "data-controller", "actor the data controller's tokens are issued for")
	codecName := flag.String("codec", "", `wire codec toward the controller: "xml" (default) or "binary"`)
	flag.Parse()
	if *producer == "" {
		log.Fatal("-producer is required")
	}
	codec, err := event.CodecByName(*codecName)
	if err != nil {
		log.Fatalf("-codec: %v", err)
	}
	run.Start()

	st, err := openStore(*dataDir, "gateway.wal")
	if err != nil {
		log.Fatalf("store: %v", err)
	}
	defer st.Close()

	var schemas gateway.SchemaSource
	var relay *transport.ShardedClient
	resMetrics := resilience.NewMetrics(telemetry.Default())
	if *controller != "" {
		list, err := memberClient(*controller, codec, *token, resMetrics).Catalog(context.Background())
		if err != nil {
			log.Fatalf("fetch catalog: %v", err)
		}
		cat := fetchedCatalog{}
		for _, s := range list {
			cat[s.Class()] = s
		}
		schemas = cat
		log.Printf("validating against %d catalog classes", len(cat))
		if relay, err = newRelay(*controller, codec, *token, resMetrics); err != nil {
			log.Fatalf("publish relay: %v", err)
		}
	}

	gw, err := gateway.New(event.ProducerID(*producer), st, schemas)
	if err != nil {
		log.Fatalf("gateway: %v", err)
	}
	srv := transport.NewGatewayServer(gw, telemetry.Default())
	srv.Tracer().SetSampleRate(run.SpanSample)
	run.ExportSpans(srv.Tracer())
	slo := gatewaySLO(telemetry.Default())
	srv.SetSLO(slo)
	var qp *transport.QueuedPublisher
	if relay != nil {
		// With a controller configured, the gateway also relays the source
		// system's publishes: POST /gw/publish forwards to the controller
		// and parks notifications in a durable outbox during outages.
		obStore, err := openStore(*dataDir, "outbox.wal")
		if err != nil {
			log.Fatalf("outbox store: %v", err)
		}
		defer obStore.Close()
		qp, err = transport.NewQueuedPublisher(relay, obStore, resMetrics, 0)
		if err != nil {
			log.Fatalf("outbox: %v", err)
		}
		defer qp.Close()
		srv.EnablePublishRelay(qp)
		telemetry.Logger().Info("publish relay enabled",
			"controller", *controller, "outbox_depth", qp.Depth())
	}
	if run.AuthKeyFile != "" {
		raw, err := os.ReadFile(run.AuthKeyFile)
		if err != nil {
			log.Fatalf("auth key: %v", err)
		}
		key, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			log.Fatalf("auth key: %v", err)
		}
		authority, err := identity.NewAuthority(key)
		if err != nil {
			log.Fatalf("authority: %v", err)
		}
		srv.RequireAuth(authority, event.Actor(*controllerActor))
		telemetry.Logger().Info("bearer-token authentication enabled", "controller_actor", *controllerActor)
	}

	srv.SetAdmission(run.Gate())

	// Drain: in-flight requests finish (the runner's http-shutdown), the
	// outbox gets one bounded chance to hand its backlog to the controller
	// (entries left behind stay durable in the WAL), then the detail store
	// fsyncs on Close.
	var steps []overload.Step
	if qp != nil {
		steps = append(steps,
			overload.Step{Name: "outbox-drain", Run: qp.DrainContext},
			overload.Step{Name: "outbox-close", Run: func(context.Context) error { qp.Close(); return nil }})
	}
	steps = append(steps, overload.Step{Name: "store-close", Run: func(context.Context) error { return st.Close() }})
	telemetry.Logger().Info("gateway configured", "producer", *producer)
	run.Serve(*addr, "local cooperation gateway", srv, slo, steps...)
}

// newRelay builds the publish relay's client toward controller. It
// routes by shard map, and starts from a version-0 map of one shard at
// controller, without asking the controller for its map: a lone
// controller is that shard, and a sharded one answers a publish for a
// person it does not own with a redirect naming its map (version 1 or
// later), which the client then fetches and routes by. Each member
// gets a client of its own (see memberClient).
func newRelay(controller string, codec event.Codec, token string, met *resilience.Metrics) (*transport.ShardedClient, error) {
	seed, err := cluster.NewMap(0, 0, []cluster.ShardInfo{{ID: 0, Addr: controller}})
	if err != nil {
		return nil, err
	}
	return transport.NewShardedClient(seed, func(info cluster.ShardInfo) *transport.Client {
		return memberClient(info.Addr, codec, token, met)
	})
}

// gatewaySLO is the gateway's latency objective: the server span of the
// filtered-retrieval endpoint, the producer-side stage of the detail
// flow, read from the css_stage_seconds the gateway server's tracer
// records into reg.
func gatewaySLO(reg *telemetry.Registry) *telemetry.SLO {
	return telemetry.NewSLO(telemetry.SLOConfig{},
		telemetry.Objective{Name: "gw-get-response", Target: 0.25, Goal: 0.99,
			Hist:        reg.Histogram("css_stage_seconds", "", "stage"),
			LabelValues: []string{"http POST /gw/get-response"}},
	)
}

// memberClient builds the gateway's client toward one controller at
// addr: the codec, a retrier and a breaker group of its own, and the
// bearer token when one is set. The boot catalog fetch and every
// member of the relay's map use it.
func memberClient(addr string, codec event.Codec, token string, met *resilience.Metrics) *transport.Client {
	c := transport.NewClient(addr, nil,
		transport.WithCodec(codec),
		transport.WithRetrier(resilience.NewRetrier(resilience.RetryPolicy{Metrics: met})),
		transport.WithBreakerGroup(resilience.NewGroup(resilience.BreakerConfig{Metrics: met})))
	if token != "" {
		c = c.WithToken(token)
	}
	return c
}

// openStore opens the gateway's store named file under dataDir, or a
// memory store when dataDir is empty. Every store opens with the zero
// store.Options: a write is in the page cache when it returns, and on
// disk only once the kernel writes it back (README "Crash safety").
func openStore(dataDir, file string) (*store.Store, error) {
	if dataDir == "" {
		return store.OpenMemory(), nil
	}
	return store.Open(filepath.Join(dataDir, file), store.Options{})
}
