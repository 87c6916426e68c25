// css-controller runs the CSS data controller as a web service.
//
// Usage:
//
//	css-controller [flags]
//
//	-addr      listen address (default :8080)
//	-data      data directory for durable state (default: in-memory)
//	-key-file  file holding the 32-byte master key in hex; created with a
//	           fresh random key if absent (requires -data to be useful)
//	-deny-default-consent  treat citizens as opted out unless they opt in
//	-scenario  provision the Trentino demo scenario (producers, consumers,
//	           event classes, standard policies, in-process gateways)
//	-pprof     expose net/http/pprof under /debug/pprof/ (opt-in; never
//	           enable on a public interface)
//	-log-json  structured JSON logs on stderr (default: text)
//	-slow      slow-operation warning threshold (default 250ms)
//	-max-inflight   global concurrent-request budget (default 256);
//	                requests beyond it are shed 429 by priority
//	-actor-rps      per-actor admission rate in requests/second
//	                (default 50; negative: unlimited)
//	-queue-cap      per-subscription bus queue bound (default 1024;
//	                <=0: unbounded)
//	-codec     codec details are asked for in from -gateway daemons:
//	           "xml" (default, paper fidelity) or "binary" (compact
//	           framing; see DESIGN.md §8). Inbound requests and callback
//	           deliveries negotiate per peer either way.
//	-drain-timeout  graceful-shutdown budget on SIGTERM/SIGINT
//	                (default 10s): stop admitting, finish in-flight
//	                requests, flush the bus, fsync and close the stores
//	-span-file      durable span export file (JSONL ring; empty: disabled)
//	-span-sample    head-sampling rate for span recording and export
//	                (default 0.1; failed spans and spans of at least
//	                100ms are always kept, in the ring and the file alike)
//	-shard-id       this controller's shard id within the -peers
//	                cluster (default -1: none; without -peers the
//	                controller is shard 0 of a one-shard map). The
//	                topology is fixed at boot and must name the id; the
//	                controller exits if it does not.
//	-peers          cluster topology: comma-separated shard base URLs
//	                assigned ids 0..n-1 in order; a key's owner is its
//	                hash scaled over n, so changing n re-homes nearly
//	                every key and a data dir booted under another n is
//	                refused. All shards must share -key-file — pseudonym
//	                partitioning assumes one HMAC keyspace
//	-role           "primary" (default) or "replica". A replica requires
//	                -data and -repl-listen, applies a primary's WAL
//	                stream as a standby, refuses every flow — inquiries
//	                included — with the not-primary redirect, and flips
//	                to primary on POST /ws/promote. Either role restarts at
//	                the fencing epoch it last held (<data>/election.epoch,
//	                1 on a fresh data dir)
//	-repl-listen    replica only: TCP address the WAL-stream follower
//	                listens on (e.g. 127.0.0.1:9301)
//	-replicate-to   comma-separated follower addresses this node ships
//	                its WALs to. On a primary, shipping starts at boot;
//	                on a replica it starts at promotion, so a promoted
//	                node feeds the surviving replicas
//	-quorum         wait for a majority of followers to fsync before
//	                acknowledging each publish (durable failover; adds
//	                one network round-trip overlapped with fan-out)
//	-election       replica only: self-healing failover. The replica
//	                watches the primary's heartbeats (plus -primary-url
//	                as an HTTP probe), and when both channels go silent
//	                it campaigns among the -replicate-to peers for the
//	                next fencing epoch; a quorum of durable grants
//	                promotes it with no operator involvement. POST
//	                /ws/promote stays available as a manual override
//	-heartbeat-interval  primary heartbeat cadence on every replication
//	                link (a beat goes out whenever one is due, busy link
//	                or idle), and the detector's expected interval on
//	                replicas (default 100ms). Without -quorum it is also
//	                an async follower's fsync cadence: a follower acks
//	                what it applied and fsyncs when a beat arrives.
//	                0 turns heartbeats off and keeps a follower's fsync
//	                before every ack
//	-suspect-after  minimum primary silence before a replica may
//	                campaign, however high suspicion climbs (default 2s)
//	-primary-url    replica only: the primary's HTTP base URL, probed
//	                via GET /ws/replstatus to confirm a suspected death
//	                before campaigning
//
// The controller always serves /metrics (Prometheus text format),
// /healthz, /slo (latency-objective burn rates) and /debug/spans (the
// in-process span ring as JSONL, for cmd/css-trace) alongside the /ws/
// API.
//
// Without -scenario the controller starts empty; members join through
// the web-service API (see internal/transport for the endpoints).
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/event"
	"repro/internal/identity"
	"repro/internal/overload"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// gatewayFlags collects repeatable -gateway producer=URL mappings.
type gatewayFlags map[string]string

func (g gatewayFlags) String() string { return fmt.Sprint(map[string]string(g)) }

func (g gatewayFlags) Set(v string) error {
	producer, url, ok := strings.Cut(v, "=")
	if !ok || producer == "" || url == "" {
		return fmt.Errorf("want producer=URL, got %q", v)
	}
	g[producer] = url
	return nil
}

func main() {
	run := daemon.Flags("controller", "identity authority key file (hex); enables bearer-token authentication (mint tokens with css-token)")
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "", "data directory (empty: in-memory)")
	keyFile := flag.String("key-file", "", "master key file (hex); created if absent")
	denyDefault := flag.Bool("deny-default-consent", false, "deny flows without an opt-in directive")
	scenario := flag.Bool("scenario", false, "provision the demo scenario")
	slow := flag.Duration("slow", telemetry.DefaultSlowThreshold, "slow-operation warning threshold")
	queueCap := flag.Int("queue-cap", 1024, "per-subscription bus queue bound (<=0: unbounded)")
	codecName := flag.String("codec", "", `codec details are asked for in from -gateway daemons: "xml" (default) or "binary"`)
	role := flag.String("role", "primary", `replication role: "primary", or "replica" (a standby that refuses every flow until promoted)`)
	replListen := flag.String("repl-listen", "", "replica: TCP address the WAL-stream follower listens on")
	replicateTo := flag.String("replicate-to", "", "comma-separated follower addresses to ship WALs to")
	quorum := flag.Bool("quorum", false, "wait for a follower fsync quorum before acknowledging publishes")
	electionOn := flag.Bool("election", false, "replica: campaign for promotion when the primary goes silent")
	heartbeatEvery := flag.Duration("heartbeat-interval", 100*time.Millisecond, "primary heartbeat cadence on replication links; without -quorum also the followers' fsync cadence (0: off, fsync before every ack)")
	suspectAfter := flag.Duration("suspect-after", 2*time.Second, "minimum primary silence before a replica campaigns")
	primaryURL := flag.String("primary-url", "", "replica: primary's HTTP base URL, probed before campaigning")
	shardID := flag.Int("shard-id", -1, "this controller's shard id within -peers (without -peers: shard 0 of a one-shard map)")
	peersSpec := flag.String("peers", "", "comma-separated shard base URLs assigned ids 0..n-1")
	gateways := gatewayFlags{}
	flag.Var(gateways, "gateway", "attach a remote cooperation gateway as producer=URL (repeatable)")
	gatewayToken := flag.String("gateway-token", "", "bearer token presented to remote gateways (auth-enabled gateways)")
	flag.Parse()
	run.Start()
	telemetry.SetSlowThreshold(*slow)

	cfg := core.Config{
		DataDir:        *dataDir,
		DefaultConsent: !*denyDefault,
		Metrics:        telemetry.Default(),
		SpanSampleRate: run.SpanSample,
	}
	// -codec picks the format the controller asks its -gateway daemons
	// for details in. Inbound requests negotiate per message and each
	// subscription names its callback codec, so XML peers keep working
	// regardless of the flag.
	codec, err := event.CodecByName(*codecName)
	if err != nil {
		log.Fatalf("-codec: %v", err)
	}
	if run.SpanSample <= 0 {
		cfg.SpanSampleRate = -1 // explicit zero means "record nothing"
	}
	if *queueCap > 0 {
		// Bounded subscription queues: a wedged consumer's queue sheds
		// each arriving notification once full instead of growing the
		// broker without bound; the consumer catches up from the index.
		cfg.Bus.MaxPending = *queueCap
	}
	if *keyFile != "" {
		key, err := loadOrCreateKey(*keyFile)
		if err != nil {
			log.Fatalf("master key: %v", err)
		}
		cfg.MasterKey = key
	}

	if *peersSpec != "" {
		if *shardID < 0 {
			log.Fatal("sharding: -shard-id is required with -peers")
		}
		if len(cfg.MasterKey) == 0 {
			log.Fatal("sharding: -key-file is required (all shards must share one master key)")
		}
		m, err := parseShardTopology(*peersSpec)
		if err != nil {
			log.Fatalf("sharding: %v", err)
		}
		cfg.ShardMap = m
		cfg.ShardID = cluster.ShardID(*shardID)
	} else if *shardID >= 0 {
		log.Fatal("sharding: -shard-id needs a topology (-peers)")
	}

	switch *role {
	case "primary":
		if *replListen != "" {
			log.Fatal("replication: -repl-listen is a replica flag")
		}
		if *electionOn {
			log.Fatal("election: -election is a replica flag (a primary is campaigned against, not for)")
		}
	case "replica":
		if *replListen == "" {
			log.Fatal("replication: -repl-listen is required for a replica")
		}
		if *electionOn && *replicateTo == "" {
			log.Fatal("election: -election needs -replicate-to (the voting peers)")
		}
	default:
		log.Fatalf("replication: unknown -role %q (want primary or replica)", *role)
	}

	ctrl, err := core.New(cfg)
	if err != nil {
		log.Fatalf("controller: %v", err)
	}
	defer ctrl.Close()

	m := ctrl.ShardMap()
	telemetry.Logger().Info("controller shard",
		"shard", ctrl.ShardID().String(), "map_version", m.Version(),
		"shards", len(m.Shards()))

	run.ExportSpans(ctrl.Tracer())

	if *scenario {
		platform, err := workload.Provision(ctrl)
		if err != nil {
			log.Fatalf("scenario: %v", err)
		}
		policies, err := platform.StandardPolicies()
		if err != nil {
			log.Fatalf("scenario policies: %v", err)
		}
		log.Printf("scenario provisioned: %d producers, %d consumers, %d classes, %d policies",
			len(workload.Producers()), len(workload.Consumers()),
			len(ctrl.Catalog().Classes()), len(policies))
	}

	srv := transport.NewServer(ctrl)

	// Replication: one node owns this process's role, its durable fencing
	// epoch (<data>/election.epoch, read at boot on either role), the WAL
	// shipper, the stream follower and the election loop; the flags map
	// onto its config (DESIGN.md §13).
	var node *replication.Node
	if *role == replication.RoleReplica || *replicateTo != "" {
		stores, err := ctrl.ReplStores()
		if err != nil {
			log.Fatalf("replication: %v", err)
		}
		ncfg := replication.NodeConfig{
			Role: *role, DataDir: *dataDir, Stores: stores,
			Listen: *replListen, Peers: splitList(*replicateTo),
			Quorum: *quorum, Election: *electionOn,
			HeartbeatEvery: *heartbeatEvery, SuspectAfter: *suspectAfter,
			Promote: ctrl.Promote, OnApply: ctrl.OnReplicatedApply,
			OnPromoted: func(epoch uint64) { telemetry.Logger().Info("promoted to primary", "epoch", epoch) },
			Metrics:    telemetry.Default(), Tracer: ctrl.Tracer(),
			Logf: func(format string, args ...any) {
				telemetry.Logger().Info("repl: " + fmt.Sprintf(format, args...))
			},
		}
		if *primaryURL != "" {
			probe := transport.NewClient(*primaryURL, nil)
			ncfg.Probe = func(ctx context.Context) error {
				_, err := probe.ReplStatus(ctx)
				return err
			}
		}
		if node, err = replication.NewNode(ncfg); err != nil {
			log.Fatalf("replication: %v", err)
		}
		ctrl.AttachReplication(node)
		srv.SetNode(node)
		telemetry.Logger().Info("replication node started",
			"role", *role, "epoch", node.Status().Epoch, "listen", node.Addr(),
			"peers", *replicateTo, "quorum", *quorum, "election", *electionOn)
	}

	if len(gateways) > 0 {
		// Remote detail sources get a shared retry policy and one circuit
		// breaker per gateway; breaker states show up on /healthz so an
		// operator can see at a glance which producer is unreachable.
		resMetrics := resilience.NewMetrics(telemetry.Default())
		breakers := resilience.NewGroup(resilience.BreakerConfig{
			Metrics: resMetrics,
			// Breaker state changes get their own timeline entries, so a
			// css-trace waterfall shows when the circuit opened relative to
			// the flows that tripped it.
			OnTransition: resilience.TraceTransitions(ctrl.Tracer(), nil),
		})
		retrier := resilience.NewRetrier(resilience.RetryPolicy{Metrics: resMetrics})
		for producer, url := range gateways {
			rg := transport.NewRemoteGateway(url, nil, transport.WithCodec(codec),
				transport.WithRetrier(retrier), transport.WithBreakerGroup(breakers))
			if *gatewayToken != "" {
				rg = rg.WithToken(*gatewayToken)
			}
			if err := ctrl.AttachGateway(event.ProducerID(producer), rg); err != nil {
				log.Fatalf("attach gateway %s: %v", producer, err)
			}
			telemetry.Logger().Info("remote gateway attached", "producer", producer, "url", url)
		}
		srv.AddHealthDetail(func() map[string]string {
			out := make(map[string]string)
			for name, state := range breakers.States() {
				out["breaker "+name] = state.String()
			}
			return out
		})
	}
	if run.AuthKeyFile != "" {
		key, err := loadOrCreateKey(run.AuthKeyFile)
		if err != nil {
			log.Fatalf("auth key: %v", err)
		}
		authority, err := identity.NewAuthority(key)
		if err != nil {
			log.Fatalf("authority: %v", err)
		}
		srv.RequireAuth(authority)
		telemetry.Logger().Info("bearer-token authentication enabled", "key", run.AuthKeyFile)
	}

	srv.SetAdmission(run.Gate())

	// Per-flow latency objectives, computed from the same histogram
	// families /metrics exposes. Targets sit on bucket bounds.
	reg := telemetry.Default()
	slo := telemetry.NewSLO(telemetry.SLOConfig{},
		telemetry.Objective{Name: "publish", Target: 0.25, Goal: 0.99,
			Hist: reg.Histogram("css_publish_seconds", "")},
		telemetry.Objective{Name: "deliver", Target: 0.25, Goal: 0.99,
			Hist: reg.Histogram("css_delivery_seconds", "")},
		telemetry.Objective{Name: "detail-permit", Target: 0.5, Goal: 0.99,
			Hist:        reg.Histogram("css_detail_request_seconds", "", "outcome"),
			LabelValues: []string{"permit"}},
	)
	srv.SetSLO(slo)

	telemetry.Logger().Info("controller configured", "data", orMem(*dataDir),
		"queue_cap", *queueCap, "slow_threshold", slow.String())
	// Drain: in-flight requests finish (the runner's http-shutdown), queued
	// bus messages flush, replication stops, and the stores fsync on Close.
	run.Serve(*addr, "CSS data controller", srv, slo,
		overload.Step{Name: "bus-flush", Run: ctrl.FlushContext},
		overload.Step{Name: "repl-close", Run: func(context.Context) error {
			if node != nil {
				return node.Close()
			}
			return nil
		}},
		overload.Step{Name: "store-close", Run: ctrl.CloseContext})
}

// parseShardTopology builds the boot shard map (version 1) from
// -peers, whose URLs take ids 0..n-1 in list order.
func parseShardTopology(peers string) (*cluster.Map, error) {
	urls := splitList(peers)
	shards := make([]cluster.ShardInfo, len(urls))
	for id, u := range urls {
		shards[id] = cluster.ShardInfo{ID: cluster.ShardID(id), Addr: u}
	}
	return cluster.NewMap(1, 0, shards)
}

// splitList splits a comma-separated flag value, dropping blanks.
func splitList(v string) []string {
	var out []string
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func orMem(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}

// loadOrCreateKey reads a hex key file, creating it with a fresh random
// key when missing.
func loadOrCreateKey(path string) ([]byte, error) {
	if data, err := os.ReadFile(path); err == nil {
		key, err := hex.DecodeString(strings.TrimSpace(string(data)))
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", path, err)
		}
		return key, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil && filepath.Dir(path) != "." {
		return nil, err
	}
	if err := os.WriteFile(path, []byte(hex.EncodeToString(key)+"\n"), 0o600); err != nil {
		return nil, err
	}
	log.Printf("generated new master key at %s", path)
	return key, nil
}
