// Repository-level benchmarks: one testing.B benchmark per experiment of
// EXPERIMENTS.md (the css-bench tool prints the corresponding full
// tables). Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/process"
	"repro/internal/replication"
	"repro/internal/reporting"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/xacml"
)

func benchController(b *testing.B) (*core.Controller, *workload.Platform) {
	b.Helper()
	c, err := core.New(core.Config{DefaultConsent: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.Provision(c)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.StandardPolicies(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c, p
}

// BenchmarkE1_PublishRoute measures one publish through the full pipeline
// (validate, assign id, encrypt+index, audit, route) with 16 subscribers.
func BenchmarkE1_PublishRoute(b *testing.B) {
	c, err := core.New(core.Config{DefaultConsent: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterProducer("hospital", "H"); err != nil {
		b.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterConsumer("org", "O"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "org", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{"care"}, Fields: []event.FieldName{"patient-id"},
	}); err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		if _, err := c.Subscribe(event.Actor(fmt.Sprintf("org/d%02d", i)), schema.ClassBloodTest,
			func(*event.Notification) { wg.Done() }); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	wg.Add(b.N * 16)
	for i := 0; i < b.N; i++ {
		if _, err := c.Publish(&event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("s-%09d", i)), Class: schema.ClassBloodTest,
			PersonID: "PRS-1", OccurredAt: time.Now(), Producer: "hospital",
		}); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// BenchmarkE1_PublishRouteBinary is E1_PublishRoute with the controller
// pre-encoding bus payloads in the binary framing instead of XML — the
// codec is the only variable, so the delta between the two benchmarks
// is the wire-format cost of the publish path.
func BenchmarkE1_PublishRouteBinary(b *testing.B) {
	c, err := core.New(core.Config{DefaultConsent: true, Codec: event.Binary})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterProducer("hospital", "H"); err != nil {
		b.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterConsumer("org", "O"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "org", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{"care"}, Fields: []event.FieldName{"patient-id"},
	}); err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		if _, err := c.Subscribe(event.Actor(fmt.Sprintf("org/d%02d", i)), schema.ClassBloodTest,
			func(*event.Notification) { wg.Done() }); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	wg.Add(b.N * 16)
	for i := 0; i < b.N; i++ {
		if _, err := c.Publish(&event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("s-%09d", i)), Class: schema.ClassBloodTest,
			PersonID: "PRS-1", OccurredAt: time.Now(), Producer: "hospital",
		}); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// satSeq keeps saturation source ids unique across sub-benchmarks and
// across the framework's b.N growth reruns, so no iteration ever lands
// on the idempotent re-publish fast path.
var satSeq atomic.Int64

// BenchmarkE1_Saturation measures the full web-service publish path —
// HTTP server, codec negotiation, controller pipeline, commit barrier —
// swept over connection counts and wire codecs. Each sub-benchmark
// reports sustained publishes/sec and the client-observed p99 latency,
// the pair EXPERIMENTS.md's saturation table is built from.
func BenchmarkE1_Saturation(b *testing.B) {
	for _, codec := range []event.Codec{event.XML, event.Binary} {
		for _, conns := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("codec=%s/conns=%d", codec.Name(), conns), func(b *testing.B) {
				c, err := core.New(core.Config{DefaultConsent: true, Codec: codec})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if err := c.RegisterProducer("hospital", "H"); err != nil {
					b.Fatal(err)
				}
				if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
					b.Fatal(err)
				}
				if err := c.RegisterConsumer("org", "O"); err != nil {
					b.Fatal(err)
				}
				if _, err := c.DefinePolicy(&policy.Policy{
					Producer: "hospital", Actor: "org", Class: schema.ClassBloodTest,
					Purposes: []event.Purpose{"care"}, Fields: []event.FieldName{"patient-id"},
				}); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					if _, err := c.Subscribe(event.Actor(fmt.Sprintf("org/d%02d", i)), schema.ClassBloodTest,
						func(*event.Notification) {}); err != nil {
						b.Fatal(err)
					}
				}
				srv := httptest.NewServer(transport.NewServer(c))
				defer srv.Close()
				client := transport.NewClient(srv.URL, nil, transport.WithCodec(codec))
				publish := func() (time.Duration, error) {
					i := satSeq.Add(1)
					t0 := time.Now()
					_, err := client.Publish(context.Background(), &event.Notification{
						SourceID: event.SourceID(fmt.Sprintf("sat-%012d", i)), Class: schema.ClassBloodTest,
						PersonID: "PRS-1", OccurredAt: time.Now(), Producer: "hospital",
					})
					return time.Since(t0), err
				}
				// Warm the keep-alive pool before the timed region.
				if _, err := publish(); err != nil {
					b.Fatal(err)
				}
				var (
					mu   sync.Mutex
					lats = make([]time.Duration, 0, b.N)
					next atomic.Int64
					wg   sync.WaitGroup
				)
				b.ResetTimer()
				start := time.Now()
				for w := 0; w < conns; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						local := make([]time.Duration, 0, b.N/conns+1)
						for next.Add(1) <= int64(b.N) {
							d, err := publish()
							if err != nil {
								b.Error(err)
								return
							}
							local = append(local, d)
						}
						mu.Lock()
						lats = append(lats, local...)
						mu.Unlock()
					}()
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				if b.Failed() || len(lats) == 0 {
					return
				}
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				idx := len(lats) * 99 / 100
				if idx >= len(lats) {
					idx = len(lats) - 1
				}
				p99 := lats[idx]
				b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "pub/s")
				b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
				c.Flush(time.Minute)
			})
		}
	}
}

// benchShardCluster boots n sharded controllers over one master key,
// each behind its own HTTP server on a pre-bound port (the map must
// name real addresses before the controllers exist), and returns a
// sharded client that routes by locally computed pseudonym — the
// harness stands in for a producer co-located with the cluster key.
func benchShardCluster(b *testing.B, n int) *transport.ShardedClient {
	b.Helper()
	key := bytes.Repeat([]byte{9}, crypto.KeySize)
	lns := make([]net.Listener, n)
	shards := make([]cluster.ShardInfo, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
		shards[i] = cluster.ShardInfo{ID: cluster.ShardID(i), Addr: "http://" + ln.Addr().String()}
	}
	m, err := cluster.NewMap(1, 0, shards)
	if err != nil {
		b.Fatal(err)
	}
	ctrls := make([]*core.Controller, n)
	for i := range ctrls {
		c, err := core.New(core.Config{
			DefaultConsent: true, Codec: event.Binary, MasterKey: key,
			ShardID: cluster.ShardID(i), ShardMap: m,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		if err := c.RegisterProducer("hospital", "H"); err != nil {
			b.Fatal(err)
		}
		if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
			b.Fatal(err)
		}
		if err := c.RegisterConsumer("org", "O"); err != nil {
			b.Fatal(err)
		}
		if _, err := c.DefinePolicy(&policy.Policy{
			Producer: "hospital", Actor: "org", Class: schema.ClassBloodTest,
			Purposes: []event.Purpose{"care"}, Fields: []event.FieldName{"patient-id"},
		}); err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			if _, err := c.Subscribe(event.Actor(fmt.Sprintf("org/d%02d", s)), schema.ClassBloodTest,
				func(*event.Notification) {}); err != nil {
				b.Fatal(err)
			}
		}
		srv := httptest.NewUnstartedServer(transport.NewServer(c))
		srv.Listener.Close()
		srv.Listener = lns[i]
		srv.Start()
		b.Cleanup(srv.Close)
		ctrls[i] = c
	}
	b.Cleanup(func() {
		for _, c := range ctrls {
			c.Flush(time.Minute)
		}
	})
	sc, err := transport.NewShardedClient(m, func(info cluster.ShardInfo) *transport.Client {
		return transport.NewClient(info.Addr, nil, transport.WithCodec(event.Binary))
	}, transport.WithPseudonym(ctrls[0].Pseudonym))
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkE1_ShardedSaturation is E1_Saturation over a horizontally
// sharded controller: the binary-codec publish path swept over cluster
// width × connection count, persons spread across the keyspace so the
// consistent-hash ring distributes load. The shards=1 row is the
// sharding tax (one extra ownership check per publish) against
// E1_Saturation's codec=binary/conns=16 row; the shards=4 row is the
// scale-out claim — both gated by css-benchgate.
func BenchmarkE1_ShardedSaturation(b *testing.B) {
	for _, nShards := range []int{1, 2, 4} {
		for _, conns := range []int{4, 16} {
			b.Run(fmt.Sprintf("shards=%d/conns=%d", nShards, conns), func(b *testing.B) {
				sc := benchShardCluster(b, nShards)
				publish := func() (time.Duration, error) {
					i := satSeq.Add(1)
					t0 := time.Now()
					_, err := sc.Publish(context.Background(), &event.Notification{
						SourceID: event.SourceID(fmt.Sprintf("shs-%012d", i)), Class: schema.ClassBloodTest,
						PersonID: fmt.Sprintf("PRS-%03d", i%256), OccurredAt: time.Now(), Producer: "hospital",
					})
					return time.Since(t0), err
				}
				// Warm every shard's keep-alive pool before the timed region.
				for w := 0; w < nShards; w++ {
					if _, err := publish(); err != nil {
						b.Fatal(err)
					}
				}
				var (
					mu   sync.Mutex
					lats = make([]time.Duration, 0, b.N)
					next atomic.Int64
					wg   sync.WaitGroup
				)
				b.ResetTimer()
				start := time.Now()
				for w := 0; w < conns; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						local := make([]time.Duration, 0, b.N/conns+1)
						for next.Add(1) <= int64(b.N) {
							d, err := publish()
							if err != nil {
								b.Error(err)
								return
							}
							local = append(local, d)
						}
						mu.Lock()
						lats = append(lats, local...)
						mu.Unlock()
					}()
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				if b.Failed() || len(lats) == 0 {
					return
				}
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				idx := len(lats) * 99 / 100
				if idx >= len(lats) {
					idx = len(lats) - 1
				}
				b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "pub/s")
				b.ReportMetric(float64(lats[idx].Nanoseconds()), "p99-ns")
			})
		}
	}
}

// benchPublishSetup provisions a minimal publish pipeline with the given
// number of subscribers, each counting deliveries on wg.
func benchPublishSetup(b *testing.B, subs int, wg *sync.WaitGroup) *core.Controller {
	b.Helper()
	c, err := core.New(core.Config{DefaultConsent: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	if err := c.RegisterProducer("hospital", "H"); err != nil {
		b.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterConsumer("org", "O"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "org", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{"care"}, Fields: []event.FieldName{"patient-id"},
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < subs; i++ {
		if _, err := c.Subscribe(event.Actor(fmt.Sprintf("org/d%03d", i)), schema.ClassBloodTest,
			func(*event.Notification) { wg.Done() }); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkE1_PublishFanout measures the publish pipeline as the fan-out
// widens: with the shared-payload bus the routing cost per subscriber is
// one queue push, not one XML decode.
func BenchmarkE1_PublishFanout(b *testing.B) {
	for _, subs := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			var wg sync.WaitGroup
			c := benchPublishSetup(b, subs, &wg)
			b.ResetTimer()
			wg.Add(b.N * subs)
			for i := 0; i < b.N; i++ {
				if _, err := c.Publish(&event.Notification{
					SourceID: event.SourceID(fmt.Sprintf("s-%09d", i)), Class: schema.ClassBloodTest,
					PersonID: "PRS-1", OccurredAt: time.Now(), Producer: "hospital",
				}); err != nil {
					b.Fatal(err)
				}
			}
			wg.Wait()
		})
	}
}

// BenchmarkE1_PublishParallel drives the publish pipeline from 4
// concurrent producers against 16 subscribers — the bus-saturating shape
// that exercises the batched index write, the lock-lean audit append and
// the single-decode fan-out under contention.
func BenchmarkE1_PublishParallel(b *testing.B) {
	const subs = 16
	var wg sync.WaitGroup
	c := benchPublishSetup(b, subs, &wg)
	var seq atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			wg.Add(subs)
			if _, err := c.Publish(&event.Notification{
				SourceID: event.SourceID(fmt.Sprintf("s-%09d", i)), Class: schema.ClassBloodTest,
				PersonID: "PRS-1", OccurredAt: time.Now(), Producer: "hospital",
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	wg.Wait()
}

// replSeq keeps replicated-publish source ids unique across modes and
// across the framework's b.N growth reruns.
var replSeq atomic.Int64

// benchReplNode starts and attaches c's replication node, wired as
// css-controller wires it.
func benchReplNode(b *testing.B, c *core.Controller, cfg replication.NodeConfig) *replication.Node {
	b.Helper()
	stores, err := c.ReplStores()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Stores, cfg.Promote, cfg.OnApply = stores, c.Promote, c.OnReplicatedApply
	n, err := replication.NewNode(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c.AttachReplication(n)
	return n
}

// BenchmarkE1_ReplicatedPublish measures the publish pipeline cost of
// WAL-shipping replication to one follower over a real TCP link, in
// four modes: standalone (no replication attached, the floor), async
// (shipping overlaps the ack — gated within 5% of standalone by
// css-benchgate), async-heartbeat (async plus the failure detector's
// heartbeat loop on the link — gated within 5% of async, proving
// liveness beacons cost nothing on the write path), and quorum (each
// ack waits for the follower's fsync, buying durable failover for one
// overlapped round-trip).
func BenchmarkE1_ReplicatedPublish(b *testing.B) {
	for _, mode := range []string{"standalone", "async", "async-heartbeat", "quorum"} {
		b.Run("mode="+mode, func(b *testing.B) {
			priDir := b.TempDir()
			pri, err := core.New(core.Config{DefaultConsent: true, DataDir: priDir})
			if err != nil {
				b.Fatal(err)
			}
			defer pri.Close()
			if err := pri.RegisterProducer("hospital", "H"); err != nil {
				b.Fatal(err)
			}
			if err := pri.DeclareClass("hospital", schema.BloodTest()); err != nil {
				b.Fatal(err)
			}
			if mode != "standalone" {
				repDir := b.TempDir()
				rep, err := core.New(core.Config{DefaultConsent: true, DataDir: repDir})
				if err != nil {
					b.Fatal(err)
				}
				defer rep.Close()
				repNode := benchReplNode(b, rep, replication.NodeConfig{
					Role: replication.RoleReplica, DataDir: repDir, Listen: "127.0.0.1:0",
				})
				defer repNode.Close()
				var beat time.Duration
				if mode == "async-heartbeat" {
					beat = 100 * time.Millisecond
				}
				priNode := benchReplNode(b, pri, replication.NodeConfig{
					Role: replication.RolePrimary, DataDir: priDir, Peers: []string{repNode.Addr()},
					Quorum: mode == "quorum", HeartbeatEvery: beat,
				})
				defer priNode.Close()
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := pri.Publish(&event.Notification{
					SourceID: event.SourceID(fmt.Sprintf("repl-%012d", replSeq.Add(1))),
					Class:    schema.ClassBloodTest, PersonID: "PRS-1",
					OccurredAt: time.Now(), Producer: "hospital",
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "pub/s")
		})
	}
}

// BenchmarkE2_DetailRequest measures one end-to-end request for details
// (consent check, Algorithm 1, audit) against the standard policy set.
func BenchmarkE2_DetailRequest(b *testing.B) {
	c, p := benchController(b)
	gen := workload.NewGenerator(workload.Config{Seed: 1, People: 100,
		Classes: []*schema.Schema{schema.HomeCare()}})
	n, d := gen.Next()
	gid, err := p.Produce(n, d)
	if err != nil {
		b.Fatal(err)
	}
	req := &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassHomeCare,
		EventID: gid, Purpose: event.PurposeHealthcareTreatment,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RequestDetails(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_PDPEvaluate measures one PDP evaluation in a repository of
// 10 000 policies over 10 classes.
func BenchmarkE3_PDPEvaluate(b *testing.B) {
	pdp, err := xacml.NewPDP(xacml.FirstApplicable)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		x, err := xacml.Compile(&policy.Policy{
			ID:       policy.ID(fmt.Sprintf("p-%06d", i)),
			Producer: "prod",
			Actor:    event.Actor(fmt.Sprintf("actor-%06d", i)),
			Class:    event.ClassID(fmt.Sprintf("class.c%d", i%10)),
			Purposes: []event.Purpose{"care"},
			Fields:   []event.FieldName{"f1"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := pdp.Add(x); err != nil {
			b.Fatal(err)
		}
	}
	req := xacml.CompileRequest(&event.DetailRequest{
		Requester: "actor-009999", Class: "class.c9", EventID: "e", Purpose: "care",
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := pdp.Evaluate(req); r.Decision != xacml.Permit {
			b.Fatal(r.Decision)
		}
	}
}

// BenchmarkE4_TwoPhaseEmit measures the producer-side cost of the
// two-phase protocol: persist detail + publish notification.
func BenchmarkE4_TwoPhaseEmit(b *testing.B) {
	_, p := benchController(b)
	gen := workload.NewGenerator(workload.Config{Seed: 2, People: 1000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, d := gen.Next()
		if _, err := p.Produce(n, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_WarehouseLoad is the one-phase baseline of the same emit.
func BenchmarkE4_WarehouseLoad(b *testing.B) {
	wh := baseline.NewWarehouse()
	gen := workload.NewGenerator(workload.Config{Seed: 2, People: 1000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d := gen.Next()
		wh.Load(d)
	}
}

// BenchmarkE5_IndexPut measures one encrypted index insert.
func BenchmarkE5_IndexPut(b *testing.B) {
	keys, err := crypto.NewKeyring(bytes.Repeat([]byte{7}, crypto.KeySize))
	if err != nil {
		b.Fatal(err)
	}
	benchIndexPut(b, index.New(store.OpenMemory(), keys))
}

// BenchmarkE5_IndexPutPlaintext is the plaintext baseline.
func BenchmarkE5_IndexPutPlaintext(b *testing.B) {
	benchIndexPut(b, index.New(store.OpenMemory(), nil))
}

func benchIndexPut(b *testing.B, ix *index.Index) {
	b.Helper()
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := ix.Put(&event.Notification{
			ID:         event.GlobalID(fmt.Sprintf("evt-%09d", i)),
			Class:      "class.c0",
			PersonID:   fmt.Sprintf("PRS-%05d", i%1000),
			OccurredAt: base.Add(time.Duration(i) * time.Second),
			Producer:   "hospital",
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_PersonInquiry measures a pseudonym-indexed person lookup in
// a 50k-notification encrypted index.
func BenchmarkE5_PersonInquiry(b *testing.B) {
	keys, _ := crypto.NewKeyring(bytes.Repeat([]byte{7}, crypto.KeySize))
	ix := index.New(store.OpenMemory(), keys)
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 50000; i++ {
		ix.Put(&event.Notification{
			ID: event.GlobalID(fmt.Sprintf("evt-%09d", i)), Class: "class.c0",
			PersonID:   fmt.Sprintf("PRS-%05d", i%2500),
			OccurredAt: base.Add(time.Duration(i) * time.Second), Producer: "h",
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Inquire(index.Inquiry{PersonID: fmt.Sprintf("PRS-%05d", i%2500)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_AuditAppend measures one hash-chained audit append.
func BenchmarkE6_AuditAppend(b *testing.B) {
	l, err := audit.Open(store.OpenMemory())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(audit.Record{
			Kind: audit.KindDetailRequest, Actor: "doctor",
			EventID: "evt-1", Class: "c.x", Purpose: "care", Outcome: "permit",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_AuditVerify measures full-chain verification of a 10k log.
func BenchmarkE6_AuditVerify(b *testing.B) {
	l, _ := audit.Open(store.OpenMemory())
	for i := 0; i < 10000; i++ {
		l.Append(audit.Record{Kind: audit.KindPublish, Actor: "p", Outcome: "ok"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_FilterEvent measures the Algorithm 2 field filtering that
// implements minimal usage, on a 9-field home-care event.
func BenchmarkE7_FilterEvent(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 3, People: 10,
		Classes: []*schema.Schema{schema.HomeCare()}})
	_, d := gen.Next()
	allowed := []event.FieldName{"patient-id", "name", "surname"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := d.Filter(allowed); len(f.Fields) == 0 {
			b.Fatal("empty filter result")
		}
	}
}

// BenchmarkE8_WindowInquiry measures a class+time-window inquiry in a
// 100k index.
func BenchmarkE8_WindowInquiry(b *testing.B) {
	keys, _ := crypto.NewKeyring(bytes.Repeat([]byte{7}, crypto.KeySize))
	ix := index.New(store.OpenMemory(), keys)
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100000; i++ {
		ix.Put(&event.Notification{
			ID: event.GlobalID(fmt.Sprintf("evt-%09d", i)), Class: event.ClassID(fmt.Sprintf("class.c%d", i%8)),
			PersonID:   fmt.Sprintf("PRS-%05d", i%5000),
			OccurredAt: base.Add(time.Duration(i) * time.Minute), Producer: "h",
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := base.Add(time.Duration(i%100000) * time.Minute)
		if _, err := ix.Inquire(index.Inquiry{Class: "class.c0", From: from, To: from.Add(24 * time.Hour), Limit: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_OnboardProducer measures registering one more producer
// (with one class and one policy) on a provisioned platform — the O(1)
// hub onboarding step.
func BenchmarkE9_OnboardProducer(b *testing.B) {
	c, _ := benchController(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := event.ProducerID(fmt.Sprintf("clinic-%09d", i))
		class := event.ClassID(fmt.Sprintf("clinic%09d.visit", i))
		if err := c.RegisterProducer(id, "clinic"); err != nil {
			b.Fatal(err)
		}
		s := schema.MustNew(class, 1, "visit",
			schema.Field{Name: "patient-id", Type: schema.String, Required: true, Sensitivity: schema.Identifying})
		if err := c.DeclareClass(id, s); err != nil {
			b.Fatal(err)
		}
		if _, err := c.DefinePolicy(&policy.Policy{
			Producer: id, Actor: "family-doctor", Class: class,
			Purposes: []event.Purpose{"care"}, Fields: []event.FieldName{"patient-id"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10_GatewayRetrieve measures one Algorithm 2 retrieval from a
// gateway holding 10k persisted details (the temporal-decoupling path).
func BenchmarkE10_GatewayRetrieve(b *testing.B) {
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		d := event.NewDetail("c.x", event.SourceID(fmt.Sprintf("s-%06d", i)), "hospital").
			Set("patient-id", "PRS-1").Set("payload", "some sensitive content here")
		if err := gw.Persist(d); err != nil {
			b.Fatal(err)
		}
	}
	fields := []event.FieldName{"patient-id"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.GetResponse(event.SourceID(fmt.Sprintf("s-%06d", i%10000)), fields); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_SubscribeAuthorized measures one authorized subscribe +
// cancel round.
func BenchmarkE11_SubscribeAuthorized(b *testing.B) {
	c, _ := benchController(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := c.Subscribe("family-doctor", schema.ClassHomeCare, func(*event.Notification) {})
		if err != nil {
			b.Fatal(err)
		}
		sub.Cancel()
	}
}

// BenchmarkE11_SubscribeDenied measures one deny-by-default rejection.
func BenchmarkE11_SubscribeDenied(b *testing.B) {
	c, _ := benchController(b)
	if err := c.RegisterConsumer("stranger", "S"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Subscribe("stranger", schema.ClassHomeCare, func(*event.Notification) {}); err == nil {
			b.Fatal("unexpected grant")
		}
	}
}

// BenchmarkE12_Compile measures one Definition-2 → XACML compilation.
func BenchmarkE12_Compile(b *testing.B) {
	p := &policy.Policy{
		ID: "p-1", Producer: "prod", Actor: "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   schema.BloodTest().FieldNames(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xacml.Compile(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_EncodeDecode measures the XACML XML round trip of one
// compiled policy.
func BenchmarkE12_EncodeDecode(b *testing.B) {
	p := &policy.Policy{
		ID: "p-1", Producer: "prod", Actor: "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   schema.BloodTest().FieldNames(),
	}
	x, err := xacml.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := xacml.Encode(x)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xacml.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15_MonitorObserve measures one notification observation by
// the process monitor tracking two pathways.
func BenchmarkE15_MonitorObserve(b *testing.B) {
	m, err := process.NewMonitor(
		&process.Pathway{
			Name:    "post-discharge care",
			Trigger: schema.ClassDischarge,
			Stages: []process.Stage{
				{Name: "home care", Class: schema.ClassHomeCare, Within: 7 * 24 * time.Hour},
				{Name: "nursing", Class: schema.ClassNursingService, Within: 14 * 24 * time.Hour},
			},
		},
		&process.Pathway{
			Name:    "telecare activation",
			Trigger: schema.ClassAutonomyTest,
			Stages:  []process.Stage{{Name: "telecare", Class: schema.ClassTelecare, Within: 30 * 24 * time.Hour}},
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Seed: 15, People: 2000})
	notifications := make([]*event.Notification, 4096)
	for i := range notifications {
		n, _ := gen.Next()
		n.ID = event.GlobalID(fmt.Sprintf("evt-%08d", i))
		notifications[i] = n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(notifications[i%len(notifications)])
	}
}

// BenchmarkE13_GatewayVsCache contrasts one D3-compliant gateway
// retrieval with the ablated controller-side cache lookup.
func BenchmarkE13_GatewayVsCache(b *testing.B) {
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		b.Fatal(err)
	}
	wh := baseline.NewWarehouse()
	wh.Grant("consumer", "c.x")
	for i := 0; i < 1000; i++ {
		d := event.NewDetail("c.x", event.SourceID(fmt.Sprintf("s-%04d", i)), "hospital").
			Set("patient-id", "PRS-1").Set("diagnosis", "sensitive content")
		if err := gw.Persist(d); err != nil {
			b.Fatal(err)
		}
		wh.Load(d)
	}
	fields := []event.FieldName{"patient-id"}
	b.Run("gateway", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gw.GetResponse(event.SourceID(fmt.Sprintf("s-%04d", i%1000)), fields); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("controller-cache(ablation)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wh.Query("consumer", "c.x", event.SourceID(fmt.Sprintf("s-%04d", i%1000))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE14_WALPut measures one durable put in each durability mode.
func BenchmarkE14_WALPut(b *testing.B) {
	for _, mode := range []struct {
		name string
		sync bool
	}{{"buffered", false}, {"fsync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			st, err := store.Open(b.TempDir()+"/bench.wal", store.Options{SyncEvery: mode.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Put(fmt.Sprintf("k-%09d", i), []byte("a wal record payload")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14_WALPutConcurrent measures the fsync-mode put under 4
// concurrent writers: with group commit the writers share fsyncs, so the
// per-op cost drops well below the sequential fsync figure. Overlapping
// a blocking fsync with other writers needs OS threads, so the benchmark
// pins GOMAXPROCS to 4 regardless of the host's core count (on a 1-CPU
// box the scheduler rarely hands the processor off within one ~200µs
// fsync, which would serialize the writers and mask the group commit).
func BenchmarkE14_WALPutConcurrent(b *testing.B) {
	st, err := store.Open(b.TempDir()+"/bench.wal", store.Options{SyncEvery: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	var seq atomic.Int64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			if err := st.Put(fmt.Sprintf("k-%09d", i), []byte("a wal record payload")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE14_BatchedWrites contrasts 16 individual puts with one 16-op
// atomic batch: one lock acquisition and one WAL frame instead of 16.
func BenchmarkE14_BatchedWrites(b *testing.B) {
	const group = 16
	payload := []byte("a wal record payload")
	b.Run("individual", func(b *testing.B) {
		st, err := store.Open(b.TempDir()+"/bench.wal", store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < group; j++ {
				if err := st.Put(fmt.Sprintf("k-%09d-%02d", i, j), payload); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		st, err := store.Open(b.TempDir()+"/bench.wal", store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var batch store.Batch
			for j := 0; j < group; j++ {
				batch.Put(fmt.Sprintf("k-%09d-%02d", i, j), payload)
			}
			if err := st.Apply(&batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6_AuditAppendParallel measures the hash-chained append from 4
// concurrent actors: body encoding and hashing run outside the chain
// mutex, so appends overlap.
func BenchmarkE6_AuditAppendParallel(b *testing.B) {
	l, err := audit.Open(store.OpenMemory())
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(audit.Record{
				Kind: audit.KindDetailRequest, Actor: "doctor",
				EventID: "evt-1", Class: "c.x", Purpose: "care", Outcome: "permit",
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE16_AggregatorObserve measures one accountability aggregation
// step.
func BenchmarkE16_AggregatorObserve(b *testing.B) {
	agg := reporting.NewAggregator(reporting.Monthly)
	gen := workload.NewGenerator(workload.Config{Seed: 16, People: 1000})
	notifications := make([]*event.Notification, 4096)
	for i := range notifications {
		n, _ := gen.Next()
		notifications[i] = n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Observe(notifications[i%len(notifications)])
	}
}

// --- ED: the detail-request read path -----------------------------------
//
// The ED_* benchmarks measure the phase-2 protocol (request-for-details,
// Algorithms 1 & 2) as consumers actually drive it: the same event asked
// for over and over, a working set of recent events rotated through, and
// the adversarial shape where the policy set churns between requests.
// `make bench` records them to BENCH_details.json.

// benchDetailsRig provisions a controller with one producer, an attached
// in-process gateway holding `events` persisted details, `pad` distractor
// policies plus one policy granting family-doctor three fields, and one
// permitted detail request per event.
func benchDetailsRig(b *testing.B, events, pad int) (*core.Controller, []*event.DetailRequest) {
	b.Helper()
	c, err := core.New(core.Config{DefaultConsent: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	if err := c.RegisterProducer("hospital", "H"); err != nil {
		b.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterConsumer("family-doctor", "D"); err != nil {
		b.Fatal(err)
	}
	gw, err := gateway.New("hospital", store.OpenMemory(), c.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	if err := c.AttachGateway("hospital", gw); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < pad; i++ {
		if _, err := c.DefinePolicy(&policy.Policy{
			Producer: "hospital",
			Actor:    event.Actor(fmt.Sprintf("other-consumer-%06d", i)),
			Class:    schema.ClassBloodTest,
			Purposes: []event.Purpose{event.PurposeAdministration},
			Fields:   []event.FieldName{"patient-id"},
		}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "exam-date", "hemoglobin"},
	}); err != nil {
		b.Fatal(err)
	}
	reqs := make([]*event.DetailRequest, events)
	for i := range reqs {
		src := event.SourceID(fmt.Sprintf("src-%06d", i))
		d := event.NewDetail(schema.ClassBloodTest, src, "hospital").
			Set("patient-id", fmt.Sprintf("PRS-%04d", i%100)).
			Set("exam-date", "2010-05-30").
			Set("hemoglobin", "13.5").
			Set("aids-test", "negative").
			Set("lab-notes", "routine")
		if err := gw.Persist(d); err != nil {
			b.Fatal(err)
		}
		gid, err := c.Publish(&event.Notification{
			SourceID: src, Class: schema.ClassBloodTest,
			PersonID:   fmt.Sprintf("PRS-%04d", i%100),
			Summary:    "blood test",
			OccurredAt: time.Now(), Producer: "hospital",
		})
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = &event.DetailRequest{
			Requester: "family-doctor", Class: schema.ClassBloodTest,
			EventID: gid, Purpose: event.PurposeHealthcareTreatment,
		}
	}
	return c, reqs
}

// BenchmarkED_RepeatedDetail measures the same detail request resolved
// over and over against a 1000-policy repository — the hot read path of a
// consumer following up on a notification it keeps working with.
func BenchmarkED_RepeatedDetail(b *testing.B) {
	c, reqs := benchDetailsRig(b, 1, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RequestDetails(reqs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkED_RepeatedDetailParallel drives the same request from 4
// concurrent consumers — the shape where identical in-flight gateway
// fetches can be coalesced into one producer round trip.
func BenchmarkED_RepeatedDetailParallel(b *testing.B) {
	c, reqs := benchDetailsRig(b, 1, 1000)
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.RequestDetails(reqs[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkED_RotatingDetails rotates through a 512-event working set
// under one policy: the decision is identical across events, the fetched
// event changes every request.
func BenchmarkED_RotatingDetails(b *testing.B) {
	c, reqs := benchDetailsRig(b, 512, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RequestDetails(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkED_PolicyChurnDetail interleaves every request with a policy
// definition and a revocation — the adversarial shape for any decision
// memoization, where each request must re-resolve from scratch.
func BenchmarkED_PolicyChurnDetail(b *testing.B) {
	c, reqs := benchDetailsRig(b, 1, 100)
	churn := &policy.Policy{
		Producer: "hospital", Actor: "churn-consumer", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeAdministration},
		Fields:   []event.FieldName{"patient-id"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stored, err := c.DefinePolicy(churn)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.RequestDetails(reqs[0]); err != nil {
			b.Fatal(err)
		}
		if err := c.RevokePolicy(stored.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkED_PersonInquiryWarm measures a consumer's repeated person
// inquiries over a 512-event index (~5 events per person), the read shape
// of the events-index query service.
func BenchmarkED_PersonInquiryWarm(b *testing.B) {
	c, _ := benchDetailsRig(b, 512, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.InquireIndex("family-doctor", index.Inquiry{
			PersonID: fmt.Sprintf("PRS-%04d", i%100), Limit: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
