package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/gateway"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/workload"
)

// masterKey is shared by every controller of a run. It is fixed, not
// seeded: person pseudonyms — and with them shard ownership — then stay
// the same across seeds, so the fleet's load split does not move.
var masterKey = bytes.Repeat([]byte{0x5c}, crypto.KeySize)

// setupParts are the stages of one set-up, in seconds.
type setupParts struct {
	preload, replay, catchup, warmup, total float64
}

// rig is one running topology: the daemons of a workload on a freshly
// written history, the harness's clients and the callback hub.
type rig struct {
	e  *env
	s  *spec
	in *inputs
	o  *oracle

	dir       string
	primaries []*proc
	followers []*proc
	gateway   *proc
	hub       *hub
	admin     *http.Client

	// One set of connections per closed-loop client.
	ctl     []*transport.Client
	sharded []*transport.ShardedClient
	gw      []*transport.RemoteGateway

	parts setupParts
	// auditBase is the audit chain length the history left behind, per
	// primary; the counters below are what the daemons should add.
	auditBase     []uint64
	subscriptions int
	acked         atomic.Int64 // publishes acknowledged
	detailReqs    atomic.Int64 // detail requests answered (permit or deny)
	inquiries     atomic.Int64 // index inquiries answered
}

func (r *rig) sut() []*proc {
	out := append([]*proc(nil), r.primaries...)
	out = append(out, r.followers...)
	if r.gateway != nil {
		out = append(out, r.gateway)
	}
	return out
}

// newRig performs one full set-up: write the history in process, start
// the daemons on it (they replay their WALs), let followers catch up,
// subscribe, and run the warm-up flows.
func newRig(ctx context.Context, e *env, s *spec, in *inputs, echo echoFunc, tag string) (r *rig, err error) {
	r = &rig{e: e, s: s, in: in, dir: filepath.Join(e.tmp, tag),
		admin: &http.Client{Timeout: 10 * time.Second}}
	defer func() {
		if err != nil {
			r.destroy()
		}
	}()
	if err = os.MkdirAll(r.dir, 0o755); err != nil {
		return r, err
	}
	keyFile := filepath.Join(r.dir, "master.key")
	if err = os.WriteFile(keyFile, []byte(hex.EncodeToString(masterKey)+"\n"), 0o600); err != nil {
		return r, err
	}
	shards := 1
	if s.fleet {
		shards = 2
	}
	addrs := make([]string, shards)
	urls := make([]string, shards)
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return r, err
		}
		urls[i] = "http://" + addrs[i]
	}
	var m *cluster.Map
	if s.fleet {
		infos := make([]cluster.ShardInfo, shards)
		for i := range infos {
			infos[i] = cluster.ShardInfo{ID: cluster.ShardID(i), Addr: urls[i]}
		}
		if m, err = cluster.NewMap(1, 0, infos); err != nil {
			return r, err
		}
	}

	start := time.Now()
	if err = r.preload(m, shards); err != nil {
		return r, fmt.Errorf("preload: %w", err)
	}
	r.o = newOracle(in)
	r.parts.preload = time.Since(start).Seconds()

	// Start the daemons on the written dirs; ready means WAL replay is
	// done and the API answers.
	t := time.Now()
	common := []string{"-key-file", keyFile, "-actor-rps", "-1", "-span-sample", "0", "-codec", s.codec.Name()}
	if s.details {
		addr, aerr := freeAddr()
		if aerr != nil {
			return r, aerr
		}
		r.gateway = &proc{name: "gateway", role: "gateway", url: "http://" + addr, data: filepath.Join(r.dir, "gw")}
		if _, err = e.spawn(r.gateway, "css-gateway", "-addr", addr, "-producer", string(gatewayProducer),
			"-data", r.gateway.data, "-actor-rps", "-1", "-span-sample", "0", "-codec", s.codec.Name()); err != nil {
			return r, err
		}
		common = append(common, "-gateway", string(gatewayProducer)+"="+r.gateway.url)
	}
	replAddrs := make([]string, shards)
	for i := 0; i < shards && s.fleet; i++ {
		if replAddrs[i], err = freeAddr(); err != nil {
			return r, err
		}
		httpAddr, aerr := freeAddr()
		if aerr != nil {
			return r, aerr
		}
		f := &proc{name: fmt.Sprintf("follower%d", i), role: "follower", url: "http://" + httpAddr,
			data: filepath.Join(r.dir, fmt.Sprintf("follower%d", i))}
		args := append([]string{"-addr", httpAddr, "-data", f.data, "-role", "replica", "-repl-listen", replAddrs[i],
			"-peers", strings.Join(urls, ","), "-shard-id", fmt.Sprint(i)}, common...)
		if _, err = e.spawn(f, "css-controller", args...); err != nil {
			return r, err
		}
		r.followers = append(r.followers, f)
	}
	for i := 0; i < shards; i++ {
		p := &proc{name: fmt.Sprintf("controller%d", i), role: "controller", url: urls[i], data: r.dataDir(i)}
		args := append([]string{"-addr", addrs[i], "-data", p.data}, common...)
		if s.fleet {
			args = append(args, "-peers", strings.Join(urls, ","), "-shard-id", fmt.Sprint(i), "-replicate-to", replAddrs[i])
		}
		if _, err = e.spawn(p, "css-controller", args...); err != nil {
			return r, err
		}
		r.primaries = append(r.primaries, p)
	}
	for _, p := range r.sut() {
		path := "/ws/catalog"
		if p.role == "gateway" {
			path = "/healthz"
		}
		if err = waitHTTP(ctx, r.admin, p, path); err != nil {
			return r, err
		}
	}
	r.parts.replay = time.Since(t).Seconds()

	if s.fleet {
		t = time.Now()
		if _, err = r.waitCaughtUp(ctx); err != nil {
			return r, err
		}
		r.parts.catchup = time.Since(t).Seconds()
	}

	// Clients, subscriptions, warm-up.
	t = time.Now()
	opts := []transport.Option{transport.WithCodec(s.codec), transport.WithTimeout(flowTimeout)}
	keys, kerr := crypto.NewKeyring(masterKey)
	if kerr != nil {
		return r, kerr
	}
	for c := 0; c < clients; c++ {
		if s.fleet {
			sc, serr := transport.NewShardedClient(m, func(info cluster.ShardInfo) *transport.Client {
				return transport.NewClient(info.Addr, nil, opts...)
			}, transport.WithPseudonym(keys.Pseudonym))
			if serr != nil {
				return r, serr
			}
			r.sharded = append(r.sharded, sc)
		} else {
			r.ctl = append(r.ctl, transport.NewClient(urls[0], nil, opts...))
		}
		if r.gateway != nil {
			r.gw = append(r.gw, transport.NewRemoteGateway(r.gateway.url, nil, opts...))
		}
	}
	if len(s.subscribers) > 0 {
		if r.hub, err = newHub(len(s.subscribers)); err != nil {
			return r, err
		}
		for i, actor := range s.subscribers {
			if s.fleet {
				ids, serr := r.sharded[0].Subscribe(ctx, actor, s.flowClass.Class(), r.hub.callbackURL(i))
				if serr != nil {
					return r, serr
				}
				r.subscriptions += len(ids)
			} else {
				if _, err = r.ctl[0].Subscribe(ctx, actor, s.flowClass.Class(), r.hub.callbackURL(i)); err != nil {
					return r, err
				}
				r.subscriptions++
			}
		}
	}
	warm := runClosedLoop(ctx, 0, in.warmup, r.flow(0), echo)
	if warm.failed > 0 {
		return r, fmt.Errorf("warm-up: %d of %d flows failed, first: %v", warm.failed, warm.attempted, warm.errs[0])
	}
	r.parts.warmup = time.Since(t).Seconds()
	r.parts.total = time.Since(start).Seconds()
	return r, nil
}

func (r *rig) dataDir(shard int) string {
	return filepath.Join(r.dir, fmt.Sprintf("controller%d", shard))
}

// preload writes the history into the data dirs in process, through the
// same constructors and flows the daemons use, and records the global id
// each event was assigned.
func (r *rig) preload(m *cluster.Map, shards int) error {
	ctrls := make([]*core.Controller, shards)
	for i := range ctrls {
		cfg := core.Config{DataDir: r.dataDir(i), DefaultConsent: true, MasterKey: masterKey,
			SpanSampleRate: -1, Codec: r.s.codec}
		if m != nil {
			cfg.ShardMap, cfg.ShardID = m, cluster.ShardID(i)
		}
		c, err := core.New(cfg)
		if err != nil {
			return err
		}
		defer c.Close()
		ctrls[i] = c
		p, err := workload.Provision(c)
		if err != nil {
			return err
		}
		if _, err := p.StandardPolicies(); err != nil {
			return err
		}
	}
	var gw *gateway.Gateway
	if r.s.details {
		st, err := store.Open(filepath.Join(r.dir, "gw", "gateway.wal"), store.Options{})
		if err != nil {
			return err
		}
		defer st.Close()
		if gw, err = gateway.New(gatewayProducer, st, ctrls[0].Catalog()); err != nil {
			return err
		}
	}
	for i := range r.in.history {
		h := &r.in.history[i]
		if h.d != nil {
			if err := gw.Persist(h.d); err != nil {
				return err
			}
		}
		c := ctrls[0]
		if m != nil {
			c = ctrls[m.Owner(c.Pseudonym(h.n.PersonID))]
		}
		gid, err := c.Publish(h.n)
		if err != nil {
			return err
		}
		h.gid = gid
	}
	for _, person := range r.in.optOut {
		for _, c := range ctrls {
			if _, err := c.RecordConsent(consent.Directive{PersonID: person, Allow: false,
				Scope: consent.Scope{Consumer: "family-doctor"}}); err != nil {
				return err
			}
		}
	}
	r.auditBase = make([]uint64, shards)
	for i, c := range ctrls {
		r.auditBase[i] = c.Audit().Len()
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

// waitCaughtUp blocks until every follower's WALs are as long as its
// primary's, and returns how long that took.
func (r *rig) waitCaughtUp(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(60 * time.Second)
	for {
		lag, err := r.replLag()
		if err == nil && lag == 0 {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return 0, fmt.Errorf("followers never caught up (lag %d bytes, err %v)", lag, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// replLag is the number of WAL bytes the followers' data dirs are behind
// their primaries'. It is read from the file sizes, not from
// /ws/replstatus: a follower holds back the ack of a segment that a
// heartbeat follows in its read buffer until the next segment arrives, so
// the primaries' own lagBytes never reaches 0 on an idle link; and stat
// calls put no load on the daemons being measured.
func (r *rig) replLag() (int64, error) {
	var lag int64
	for i, f := range r.followers {
		_, ahead, err := dirBytes(r.primaries[i].data)
		if err != nil {
			return 0, err
		}
		_, behind, err := dirBytes(f.data)
		if err != nil {
			return 0, err
		}
		for name, size := range ahead {
			if strings.HasSuffix(name, ".wal") && size > behind[name] {
				lag += size - behind[name]
			}
		}
	}
	return lag, nil
}

// destroy kills the rig's processes and removes its data. Used for the
// set-up repetitions that are only timed, and on errors.
func (r *rig) destroy() {
	if r.hub != nil {
		r.hub.close()
	}
	for _, p := range r.sut() {
		if p.cmd != nil && p.exited != nil {
			p.kill()
		}
	}
	r.e.forget(r.sut())
	os.RemoveAll(r.dir)
}
