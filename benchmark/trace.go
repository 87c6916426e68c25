package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cluster"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/idmap"
	"repro/internal/index"
	"repro/internal/overload"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/replication"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// The traced run. In one process, the harness builds the layers with the
// constructors core.New uses and executes each flow serially by calling
// the layers' public functions in the order core/flows.go and
// transport/server.go do, recording a span around each call from this
// file. The daemons are not involved and record nothing; spans inside
// them are a later change that reuses these names.
//
// Beside that layer stack runs a reference: a real core.Controller on the
// same inputs, called directly and through an in-process
// transport.Server. The controller's own time minus the layer calls it
// makes is its self time, the client call minus the direct call is the
// transport round trip, and the layer calls' share of the controller's
// time says how much of the budget the spans explain.

// span is one timed call into a layer. Start and End are nanoseconds
// since the replay began; Parent is 0 for a span without one.
type span struct {
	Name   string
	Flow   int
	ID     int
	Parent int
	Start  int64
	End    int64
}

// recorder keeps spans in memory until the replay ends. Switched off it
// reads no clock, so the same replay measures its own overhead.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (0 when recording is off).
func (r *recorder) begin(name string, flow, parent int) int {
	if !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Flow: flow, ID: len(r.spans) + 1, Parent: parent,
		Start: int64(time.Since(r.t0))})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children that ran on several
// goroutines may overlap; their union is subtracted once.
func selfTimes(spans []span) []int64 {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(w, `{"name":%q,"flow":%d,"id":%d,"parent":%d,"start":%d,"end":%d}`+"\n",
			s.Name, s.Flow, s.ID, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stack is the layers of one controller and one gateway, built apart from
// core.Controller so each call into them can be timed.
type stack struct {
	s     *spec
	rec   *recorder
	reg   *registry.Registry
	ids   *idmap.Map
	idx   *index.Index
	aud   *audit.Log
	con   *consent.Registry
	repo  *policy.Repository
	enf   *enforcer.Enforcer
	pdp   *xacml.PDP // the policies once more, to time an evaluation alone
	brk   *bus.Broker
	gate  *overload.Gate
	gw    *gateway.Gateway
	ring  *cluster.Map
	repl  *replication.Primary
	sink  *callbackSink
	wire  []float64
	close []func()

	stores map[string]*store.Store // the stack's own, by name
	subs   int                     // live subscriptions
	// The flow being replayed; delivery handlers and the gateway
	// wrapper parent their spans under it.
	flow, root, parent int
	deliveries         sync.WaitGroup
}

// replayStoreNames are the controller stores the replay writes (and, in
// the fleet, ships to its follower), in the write-path order core.New
// opens them.
var replayStoreNames = []string{"idmap", "index", "audit", "consent"}

func newStack(dir string, s *spec, in *inputs, rec *recorder) (st *stack, err error) {
	st = &stack{s: s, rec: rec, reg: registry.New(), repo: policy.NewRepository(), stores: map[string]*store.Store{}}
	defer func() {
		if err != nil {
			st.shutdown()
		}
	}()
	open := func(sub, name string) (*store.Store, error) {
		sto, oerr := store.Open(filepath.Join(dir, sub, name+".wal"), store.Options{})
		if oerr == nil {
			st.close = append(st.close, func() { sto.Close() })
		}
		return sto, oerr
	}
	stores := st.stores
	for _, name := range append([]string{"gateway"}, replayStoreNames...) {
		if stores[name], err = open("stack", name); err != nil {
			return st, err
		}
	}
	for _, p := range workload.Producers() {
		if err = st.reg.RegisterProducer(p.ID, p.Name); err != nil {
			return st, err
		}
		for _, class := range p.Classes {
			if err = st.reg.DeclareClass(p.ID, class); err != nil {
				return st, err
			}
		}
	}
	for _, c := range workload.Consumers() {
		if err = st.reg.RegisterConsumer(c.Actor, c.Name); err != nil {
			return st, err
		}
	}
	keys, err := crypto.NewKeyring(masterKey)
	if err != nil {
		return st, err
	}
	st.ids = idmap.New(stores["idmap"])
	st.idx = index.New(stores["index"], keys)
	if st.aud, err = audit.Open(stores["audit"]); err != nil {
		return st, err
	}
	if st.con, err = consent.Open(stores["consent"], true); err != nil {
		return st, err
	}
	if st.enf, err = enforcer.New(st.repo, st.ids); err != nil {
		return st, err
	}
	if st.pdp, err = xacml.NewPDP(xacml.FirstApplicable); err != nil {
		return st, err
	}
	for _, p := range in.standard {
		if _, err = st.enf.AddPolicy(p); err != nil {
			return st, err
		}
		compiled, cerr := xacml.Compile(p)
		if cerr != nil {
			return st, cerr
		}
		if err = st.pdp.Add(compiled); err != nil {
			return st, err
		}
	}
	if st.gw, err = gateway.New(gatewayProducer, stores["gateway"], st.reg); err != nil {
		return st, err
	}
	if err = st.enf.AttachGateway(gatewayProducer, tracedSource{st}); err != nil {
		return st, err
	}
	st.brk = bus.New(bus.Options{MaxPending: 1024}) // css-controller's -queue-cap default
	st.close = append(st.close, st.brk.Close)
	st.gate = overload.NewGate(overload.Config{ActorRPS: -1})

	if s.fleet {
		if st.ring, err = twoShards(); err != nil {
			return st, err
		}
		var ship, apply []replication.NamedStore
		for _, name := range replayStoreNames {
			fs, oerr := open("follower", name)
			if oerr != nil {
				return st, oerr
			}
			ship = append(ship, replication.NamedStore{Name: name, Store: stores[name]})
			apply = append(apply, replication.NamedStore{Name: name, Store: fs})
		}
		f, ferr := replication.NewFollower("127.0.0.1:0", replication.FollowerConfig{Stores: apply, Epoch: 1})
		if ferr != nil {
			return st, ferr
		}
		st.close = append(st.close, func() { f.Close() })
		if st.repl, err = replication.NewPrimary(replication.PrimaryConfig{Stores: ship, Epoch: 1,
			HeartbeatEvery: 100 * time.Millisecond}); err != nil {
			return st, err
		}
		st.close = append(st.close, func() { st.repl.Close() })
		st.repl.AddFollower(f.Addr())
	}

	return st, nil
}

// subscribe adds the workload's subscriptions. They deliver as
// transport/server.go does: encode with the subscription's codec and POST
// to the subscriber's endpoint, here an in-process receiver.
func (st *stack) subscribe() error {
	if len(st.s.subscribers) == 0 {
		return nil
	}
	sink, err := newCallbackSink(st.s.codec)
	if err != nil {
		return err
	}
	st.sink = sink
	st.close = append(st.close, sink.close)
	for i, actor := range st.s.subscribers {
		actor := actor
		if _, err := st.brk.Subscribe("class/"+string(st.s.flowClass.Class()), fmt.Sprintf("sub-%06d", i+1),
			func(m *bus.Message) error { return st.deliver(actor, m) }); err != nil {
			return err
		}
		st.subs++
	}
	return nil
}

// callbackSink is an in-process subscriber endpoint and the client that
// POSTs to it, as transport.Server.deliverCallback does.
type callbackSink struct {
	codec event.Codec
	url   string
	post  *http.Client
	srv   *http.Server
}

func newCallbackSink(codec event.Codec) (*callbackSink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k := &callbackSink{codec: codec, url: "http://" + ln.Addr().String() + "/cb",
		post: &http.Client{Timeout: 10 * time.Second, Transport: transport.NewTunedTransport()},
		srv:  &http.Server{Handler: transport.NewNotificationReceiver(func(*event.Notification) {})}}
	go k.srv.Serve(ln)
	return k, nil
}

func (k *callbackSink) close() { k.srv.Close() }

// send POSTs an encoded notification to the endpoint.
func (k *callbackSink) send(body []byte) error {
	req, err := http.NewRequest(http.MethodPost, k.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", k.codec.ContentType())
	resp, err := k.post.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("subscriber endpoint answered %s", resp.Status)
	}
	return nil
}

func (st *stack) shutdown() {
	for i := len(st.close) - 1; i >= 0; i-- {
		st.close[i]()
	}
}

// tracedSource stands where the controller's detail source does, so the
// gateway's share of a detail request is its own span.
type tracedSource struct{ st *stack }

func (t tracedSource) GetResponse(src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	id := t.st.rec.begin("gateway.get_response", t.st.flow, t.st.parent)
	d, err := t.st.gw.GetResponse(src, fields)
	t.st.rec.end(id)
	return d, err
}

// deliver is core.Controller.deliver plus transport.Server.deliverCallback.
func (st *stack) deliver(actor event.Actor, m *bus.Message) error {
	defer st.deliveries.Done()
	n := m.Payload.(*event.Notification)
	id := st.rec.begin("consent.allows", st.flow, st.root)
	allowed := st.con.Allows(n.PersonID, n.Class, actor, "")
	st.rec.end(id)
	if !allowed || !st.repo.AllowsSubscription(actor, n.Class, time.Now()) {
		return nil
	}
	postSpan := st.rec.begin("transport.callback_post", st.flow, st.root)
	defer st.rec.end(postSpan)
	id = st.rec.begin("event.encode_notification", st.flow, postSpan)
	body, err := st.s.codec.EncodeNotification(n)
	st.rec.end(id)
	if err != nil {
		return err
	}
	return st.sink.send(body)
}

// loopback is the actor key transport.actorKey derives for the harness's
// unauthenticated requests.
const loopback = "127.0.0.1"

// publish replays Client.Publish → handlePublish → PublishContext, then
// waits for the deliveries. It returns the assigned id.
func (st *stack) publish(n *event.Notification) (event.GlobalID, error) {
	rec, flow, root := st.rec, st.flow, st.root
	id := rec.begin("event.encode_notification", flow, root)
	body, err := st.s.codec.EncodeNotification(n)
	rec.end(id)
	if err != nil {
		return "", err
	}
	id = rec.begin("event.decode_notification", flow, root)
	n, err = st.s.codec.DecodeNotification(body)
	rec.end(id)
	if err != nil {
		return "", err
	}
	id = rec.begin("overload.admit", flow, root)
	release, verdict := st.gate.Admit("publish", overload.Critical, loopback)
	rec.end(id)
	if !verdict.Admitted {
		return "", fmt.Errorf("publish shed: %s", verdict.Reason)
	}
	defer release()

	ctl := rec.begin("core.publish", flow, root)
	if st.ring != nil {
		id = rec.begin("cluster.owner", flow, ctl)
		st.ring.Owner(st.idx.Pseudonym(n.PersonID))
		rec.end(id)
	}
	id = rec.begin("idmap.assign", flow, ctl)
	gid, err := st.ids.Assign(n.Producer, n.SourceID, n.Class)
	rec.end(id)
	if err != nil {
		return "", err
	}
	stamped := n.Clone()
	stamped.ID, stamped.Trace, stamped.PublishedAt = gid, "replay", time.Now()
	id = rec.begin("index.put", flow, ctl)
	idxCommit, err := st.idx.PutStaged(stamped)
	rec.end(id)
	if err != nil {
		return "", err
	}
	id = rec.begin("audit.append", flow, ctl)
	_, audCommit, err := st.aud.AppendStaged(audit.Record{Kind: audit.KindPublish, Actor: string(n.Producer),
		EventID: gid, Class: n.Class, Outcome: "ok", Trace: stamped.Trace})
	rec.end(id)
	if err != nil {
		return "", err
	}
	stamped.SourceID = ""
	id = rec.begin("event.encode_notification", flow, ctl)
	wire, err := st.s.codec.EncodeNotification(stamped)
	rec.end(id)
	if err != nil {
		return "", err
	}
	st.wire = append(st.wire, float64(len(wire)))
	st.deliveries.Add(st.subs)
	id = rec.begin("bus.publish", flow, ctl)
	_, err = st.brk.PublishPayloadSpan("class/"+string(n.Class), wire, stamped, "")
	rec.end(id)
	if err != nil {
		return "", err
	}
	id = rec.begin("store.commit_wait", flow, ctl)
	err = errors.Join(idxCommit.Wait(), audCommit.Wait())
	rec.end(id)
	if err != nil {
		return "", err
	}
	if st.repl != nil {
		// The daemons ship asynchronously, where the barrier returns at
		// once; the span is here for the quorum mode to show up in.
		id = rec.begin("replication.barrier", flow, ctl)
		err = st.repl.Barrier(context.Background())
		rec.end(id)
		if err != nil {
			return "", err
		}
	}
	rec.end(ctl)

	id = rec.begin("bus.deliver_wait", flow, root)
	st.deliveries.Wait()
	rec.end(id)
	return gid, nil
}

// inquire replays Client.InquireIndex → InquireIndexContext.
func (st *stack) inquire(actor event.Actor, q index.Inquiry) ([]*event.Notification, error) {
	rec, flow, root := st.rec, st.flow, st.root
	id := rec.begin("overload.admit", flow, root)
	release, verdict := st.gate.Admit("inquire", overload.Low, loopback)
	rec.end(id)
	if !verdict.Admitted {
		return nil, fmt.Errorf("inquiry shed: %s", verdict.Reason)
	}
	defer release()
	ctl := rec.begin("core.inquire", flow, root)
	defer rec.end(ctl)
	id = rec.begin("index.inquire", flow, ctl)
	raw, err := st.idx.Inquire(q)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	var out []*event.Notification
	now := time.Now()
	for _, n := range raw {
		if !st.repo.AllowsSubscription(actor, n.Class, now) {
			continue
		}
		id = rec.begin("consent.allows", flow, ctl)
		allowed := st.con.Allows(n.PersonID, n.Class, actor, "")
		rec.end(id)
		if allowed {
			out = append(out, n.Redact())
		}
	}
	id = rec.begin("audit.append", flow, ctl)
	_, err = st.aud.Append(audit.Record{Kind: audit.KindIndexInquiry, Actor: string(actor), Outcome: "permit",
		Note: fmt.Sprint(len(out), " notifications"), Trace: "replay"})
	rec.end(id)
	return out, err
}

// detail replays Client.RequestDetails → handleDetails →
// RequestDetailsContext. A denial is returned as the error the
// controller would return.
func (st *stack) detail(r *event.DetailRequest) (*event.Detail, error) {
	rec, flow, root := st.rec, st.flow, st.root
	id := rec.begin("overload.admit", flow, root)
	release, verdict := st.gate.Admit("details", overload.Normal, loopback)
	rec.end(id)
	if !verdict.Admitted {
		return nil, fmt.Errorf("detail request shed: %s", verdict.Reason)
	}
	defer release()

	ctl := rec.begin("core.detail", flow, root)
	record := func(outcome, policyID, note string) error {
		id := rec.begin("audit.append", flow, ctl)
		_, err := st.aud.Append(audit.Record{Kind: audit.KindDetailRequest, Actor: string(r.Requester),
			EventID: r.EventID, Class: r.Class, Purpose: r.Purpose, Outcome: outcome, PolicyID: policyID,
			Note: note, Trace: "replay"})
		rec.end(id)
		rec.end(ctl)
		return err
	}
	id = rec.begin("index.get", flow, ctl)
	n, err := st.idx.Get(r.EventID)
	rec.end(id)
	if err != nil {
		return nil, errors.Join(err, record("deny", "", "unknown event id"))
	}
	id = rec.begin("consent.allows", flow, ctl)
	allowed := st.con.Allows(n.PersonID, r.Class, r.Requester, r.Purpose)
	rec.end(id)
	if !allowed {
		return nil, errors.Join(core.ErrConsentDeny, record("deny", "", "data subject consent"))
	}
	id = rec.begin("enforcer.decide", flow, ctl)
	st.parent = id
	d, out, err := st.enf.GetEventDetailsContext(context.Background(), r)
	rec.end(id)
	if err != nil {
		return nil, errors.Join(err, record("deny", out.PolicyID, out.Reason))
	}
	if err := record("permit", out.PolicyID, ""); err != nil {
		return nil, err
	}
	id = rec.begin("event.encode_detail", flow, root)
	body, err := st.s.codec.EncodeDetail(d)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("event.decode_detail", flow, root)
	d, err = st.s.codec.DecodeDetail(body)
	rec.end(id)
	return d, err
}

// alone times two calls that run inside enforcer.decide, which the
// enforcer's public surface does not let a caller wrap: the id
// resolution and one uncached XACML evaluation. They parent no span and
// are no part of the coverage sums.
func (st *stack) alone(r *event.DetailRequest) {
	id := st.rec.begin("idmap.resolve", st.flow, 0)
	st.ids.Resolve(r.EventID)
	st.rec.end(id)
	if pid, err := st.repo.MatchID(r); err == nil {
		id = st.rec.begin("xacml.evaluate", st.flow, 0)
		st.pdp.EvaluateOne(string(pid), xacml.CompileRequest(r))
		st.rec.end(id)
	}
}

// flowOps are the calls a workload's flow is made of; the stack and the
// reference implement them, and runFlow strings them together the way
// flows.go does against the daemons.
type flowOps interface {
	persist(d *event.Detail) error
	publish(n *event.Notification) (event.GlobalID, error)
	inquire(actor event.Actor, q index.Inquiry) ([]*event.Notification, error)
	detail(r *event.DetailRequest) (*event.Detail, error)
}

func (st *stack) persist(d *event.Detail) error {
	id := st.rec.begin("gateway.persist", st.flow, st.root)
	defer st.rec.end(id)
	return st.gw.Persist(d)
}

// runFlow executes one flow on ops. history and gids are the stored
// events and the ids this side assigned them. It returns the detail
// request the flow made, if any.
func runFlow(s *spec, ops flowOps, f *flowInput, history []histEvent, gids []event.GlobalID) (*event.DetailRequest, error) {
	if !s.read {
		if s.details {
			if err := ops.persist(f.d); err != nil {
				return nil, err
			}
		}
		gid, err := ops.publish(f.n)
		if err != nil || !s.details {
			return nil, err
		}
		r := &event.DetailRequest{Requester: f.actor, Class: f.n.Class, EventID: gid, Purpose: f.purpose}
		_, err = ops.detail(r)
		return r, err
	}
	target := history[f.target].n
	notes, err := ops.inquire("family-doctor", index.Inquiry{PersonID: target.PersonID,
		From: target.OccurredAt.Add(-readWindow), To: target.OccurredAt.Add(readWindow)})
	if err != nil {
		return nil, err
	}
	r := &event.DetailRequest{Requester: f.actor, Class: target.Class, EventID: gids[f.target], Purpose: f.purpose}
	if f.kind != flowDenyConsent {
		if len(notes) == 0 {
			return nil, errors.New("inquiry listed nothing for a person with events")
		}
		picked := notes[f.pick%len(notes)]
		r.Class, r.EventID = picked.Class, picked.ID
	}
	d, err := ops.detail(r)
	if f.kind == flowPermit {
		return r, err
	}
	if d != nil || !(errors.Is(err, enforcer.ErrDenied) || errors.Is(err, core.ErrConsentDeny)) {
		return nil, fmt.Errorf("must-deny request answered with %v, %v", d, err)
	}
	return r, nil
}

// load stores the history on ops before any span is recorded.
func load(s *spec, ops flowOps, in *inputs, optOut func(person string) error) ([]event.GlobalID, error) {
	gids := make([]event.GlobalID, len(in.history))
	for i, h := range in.history {
		if h.d != nil {
			if err := ops.persist(h.d); err != nil {
				return nil, err
			}
		}
		gid, err := ops.publish(h.n)
		if err != nil {
			return nil, err
		}
		gids[i] = gid
	}
	for _, person := range in.optOut {
		if err := optOut(person); err != nil {
			return nil, err
		}
	}
	return gids, nil
}

var familyDoctorOptOut = consent.Scope{Consumer: "family-doctor"}

// untracedEvery: every flow whose number is a multiple of this runs with
// span recording off, so one replay yields the flow time both ways.
const untracedEvery = 5

// tracedReplay runs the in-process replay of a workload, adds its
// metrics to res and writes the span file.
func tracedReplay(e *env, s *spec, in *inputs, sz sizes, res *result) error {
	dir, err := os.MkdirTemp(e.tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	flows := in.flows[in.warmup:]
	if len(flows) > sz.traced {
		flows = flows[:sz.traced]
	}
	if s.fleet {
		// The reference is shard 0 of two: keep the flows it owns.
		ring, rerr := twoShards()
		if rerr != nil {
			return rerr
		}
		keys, kerr := crypto.NewKeyring(masterKey)
		if kerr != nil {
			return kerr
		}
		in = in.ownedBy(ring, keys, 0)
		owned := flows[:0:0]
		for _, f := range flows {
			if ring.Owner(keys.Pseudonym(f.n.PersonID)) == 0 {
				owned = append(owned, f)
			}
		}
		flows = owned
	}

	rec := &recorder{t0: time.Now()}
	st, err := newStack(dir, s, in, rec)
	if err != nil {
		return err
	}
	defer st.shutdown()
	gids, err := load(s, st, in, func(person string) error {
		_, rerr := st.con.Record(consent.Directive{PersonID: person, Allow: false, Scope: familyDoctorOptOut})
		return rerr
	})
	if err != nil {
		return fmt.Errorf("replay: history: %w", err)
	}
	if err := st.subscribe(); err != nil {
		return err
	}
	st.wire = st.wire[:0]
	// The store is timed alone on batches shaped like the puts of the
	// store this workload writes most: the index, or the audit trail
	// when nothing is published.
	shaped := st.stores["index"]
	if s.read {
		shaped = st.stores["audit"]
	}
	keysBefore, _ := shaped.Len()
	bytesBefore := shaped.WALOffset()
	var flowOn, flowOff []float64
	for i := range flows {
		rec.on.Store(i%untracedEvery != 0)
		began := time.Now()
		st.flow, st.parent = i, 0
		st.root = rec.begin("flow", i, 0)
		r, ferr := runFlow(s, st, &flows[i], in.history, gids)
		rec.end(st.root)
		took := us(time.Since(began))
		if ferr != nil {
			return fmt.Errorf("replay: flow %d: %w", i, ferr)
		}
		if rec.on.Load() {
			flowOn = append(flowOn, took)
		} else {
			flowOff = append(flowOff, took)
		}
		if r != nil {
			st.alone(r)
		}
	}
	rec.on.Store(true)
	keysAfter, _ := shaped.Len()
	bytesAfter := shaped.WALOffset()

	v := res.values
	if len(flows) == 0 {
		return errors.New("replay: no flows")
	}
	keys := (keysAfter - keysBefore + len(flows) - 1) / len(flows)
	size := int(bytesAfter-bytesBefore) / len(flows)
	if v["store.replay_us_per_record"], err = timeStore(dir, rec, keys, size, len(flows)); err != nil {
		return fmt.Errorf("replay: store: %w", err)
	}

	ref, err := runReference(dir, s, in, flows)
	if err != nil {
		return fmt.Errorf("replay: reference: %w", err)
	}

	self := selfTimes(rec.spans)
	byName := map[string][]float64{}
	children := map[int]float64{} // summed child durations by parent id
	for i, sp := range rec.spans {
		byName[sp.Name] = append(byName[sp.Name], float64(self[i])/1e3)
		children[sp.Parent] += float64(sp.End-sp.Start) / 1e3
	}
	var pubKids, detKids []float64
	for _, sp := range rec.spans {
		switch sp.Name {
		case "core.publish":
			pubKids = append(pubKids, children[sp.ID])
		case "core.detail":
			detKids = append(detKids, children[sp.ID])
		}
	}
	for _, d := range perLayer {
		if name, ok := strings.CutSuffix(d.name, "_us"); ok {
			if samples := byName[name]; len(samples) > 0 {
				v[d.name] = median(samples)
			}
		}
	}
	v["event.notification_wire_bytes"] = median(st.wire)
	if len(ref.publishDirect) > 0 {
		direct := median(ref.publishDirect)
		v["core.publish_self_us"] = direct - median(pubKids)
		v["transport.publish_roundtrip_us"] = median(ref.publishHTTP) - direct
		v["trace.coverage_publish"] = median(pubKids) / direct
	}
	if len(ref.detailDirect) > 0 {
		direct := median(ref.detailDirect)
		v["core.detail_self_us"] = direct - median(detKids)
		v["transport.detail_roundtrip_us"] = median(ref.detailHTTP) - direct
		v["trace.coverage_detail"] = median(detKids) / direct
	}
	if off := median(flowOff); off > 0 {
		v["trace.overhead_share"] = median(flowOn)/off - 1
	}
	for _, name := range []string{"trace.coverage_publish", "trace.coverage_detail"} {
		if c, ok := v[name]; ok && (c < 0.9 || c > 1.1) {
			res.warnings = append(res.warnings, fmt.Sprintf(
				"%s is %.2f: the spans explain less or more than the controller's own time (want 0.9 to 1.1)", name, c))
		}
	}
	path := filepath.Join(e.out, s.name+".spans.jsonl")
	if err := rec.write(path); err != nil {
		return err
	}
	res.spanFile, res.spans = path, len(rec.spans)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// twoShards is the fleet's shard map as the replay sees it: the addresses
// are never dialled, ownership depends on the ids and the ring alone.
func twoShards() (*cluster.Map, error) {
	return cluster.NewMap(1, 0, []cluster.ShardInfo{{ID: 0, Addr: "http://shard-0"}, {ID: 1, Addr: "http://shard-1"}})
}

// ownedBy returns the inputs restricted to the history one shard owns.
func (in *inputs) ownedBy(ring *cluster.Map, keys *crypto.Keyring, shard cluster.ShardID) *inputs {
	out := *in
	out.history = nil
	for _, h := range in.history {
		if ring.Owner(keys.Pseudonym(h.n.PersonID)) == shard {
			out.history = append(out.history, h)
		}
	}
	return &out
}

// shipSegment is replication's shipping chunk size (its segmentBytes).
const shipSegment = 256 << 10

// timeStore times the store alone: n batches of `keys` keys and `size`
// bytes applied and read back, the log read and applied to a second store
// in shipping-sized segments as replication does, and the log replayed by
// reopening it. It returns the replay time per record.
func timeStore(dir string, rec *recorder, keys, size, n int) (replayPerRecord float64, err error) {
	path := filepath.Join(dir, "alone.wal")
	src, err := store.Open(path, store.Options{})
	if err != nil {
		return 0, err
	}
	defer src.Close()
	if keys < 1 {
		keys = 1
	}
	value := bytes.Repeat([]byte{'v'}, max(size/keys-24, 1))
	var batch store.Batch
	for i := 0; i < n; i++ {
		batch.Reset()
		for k := 0; k < keys; k++ {
			batch.Put(fmt.Sprintf("k/%08d/%d", i, k), value)
		}
		id := rec.begin("store.apply", -1, 0)
		err = src.Apply(&batch)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		id = rec.begin("store.get", -1, 0)
		_, _, err = src.Get(fmt.Sprintf("k/%08d/0", i))
		rec.end(id)
		if err != nil {
			return 0, err
		}
	}
	dst, err := store.Open(filepath.Join(dir, "alone-follower.wal"), store.Options{})
	if err != nil {
		return 0, err
	}
	defer dst.Close()
	for cursor := int64(0); cursor < src.WALOffset(); {
		id := rec.begin("store.read_wal", -1, 0)
		seg, rerr := src.ReadWAL(src.WALGen(), cursor, shipSegment)
		rec.end(id)
		if rerr != nil || len(seg) == 0 {
			return 0, fmt.Errorf("read wal at %d: %d bytes, %v", cursor, len(seg), rerr)
		}
		id = rec.begin("store.apply_wal_segment", -1, 0)
		_, err = dst.ApplyWALSegment(cursor, seg)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		cursor += int64(len(seg))
	}
	if err = src.Close(); err != nil {
		return 0, err
	}
	began := time.Now()
	reopened, err := store.Open(path, store.Options{})
	took := time.Since(began)
	if err != nil {
		return 0, err
	}
	return us(took) / float64(n), reopened.Close()
}

// reference holds the controller's own times, in microseconds.
type reference struct {
	publishDirect, publishHTTP, detailDirect, detailHTTP []float64
}

// refOps runs flows on a real controller, alternately calling it directly
// and through an in-process transport.Server.
type refOps struct {
	s      *spec
	c      *core.Controller
	gw     *gateway.Gateway
	client *transport.Client
	viaHTTP,
	timed bool
	subs       int
	deliveries sync.WaitGroup
	out        reference
}

func (o *refOps) persist(d *event.Detail) error { return o.gw.Persist(d) }

func (o *refOps) publish(n *event.Notification) (gid event.GlobalID, err error) {
	o.deliveries.Add(o.subs)
	began := time.Now()
	if o.viaHTTP {
		gid, err = o.client.Publish(context.Background(), n)
	} else {
		gid, err = o.c.PublishContext(context.Background(), n)
	}
	took := us(time.Since(began))
	if err != nil {
		return "", err
	}
	o.deliveries.Wait()
	switch {
	case !o.timed:
	case o.viaHTTP:
		o.out.publishHTTP = append(o.out.publishHTTP, took)
	default:
		o.out.publishDirect = append(o.out.publishDirect, took)
	}
	return gid, nil
}

func (o *refOps) inquire(actor event.Actor, q index.Inquiry) ([]*event.Notification, error) {
	if o.viaHTTP {
		return o.client.InquireIndex(context.Background(), actor, q)
	}
	return o.c.InquireIndexContext(context.Background(), actor, q)
}

func (o *refOps) detail(r *event.DetailRequest) (d *event.Detail, err error) {
	began := time.Now()
	if o.viaHTTP {
		d, err = o.client.RequestDetails(context.Background(), r)
	} else {
		d, err = o.c.RequestDetailsContext(context.Background(), r)
	}
	took := us(time.Since(began))
	switch {
	case !o.timed:
	case o.viaHTTP:
		o.out.detailHTTP = append(o.out.detailHTTP, took)
	default:
		o.out.detailDirect = append(o.out.detailDirect, took)
	}
	return d, err
}

// runReference executes the same history and flows on a real controller
// with its gateway attached in process.
func runReference(dir string, s *spec, in *inputs, flows []flowInput) (*reference, error) {
	cfg := core.Config{DataDir: filepath.Join(dir, "reference"), DefaultConsent: true, MasterKey: masterKey,
		SpanSampleRate: -1, Codec: s.codec, Bus: bus.Options{MaxPending: 1024}}
	if s.fleet {
		ring, err := twoShards()
		if err != nil {
			return nil, err
		}
		cfg.ShardMap, cfg.ShardID = ring, 0
	}
	c, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	p, err := workload.Provision(c)
	if err != nil {
		return nil, err
	}
	if _, err := p.StandardPolicies(); err != nil {
		return nil, err
	}
	gwStore, err := store.Open(filepath.Join(dir, "reference", "gateway.wal"), store.Options{})
	if err != nil {
		return nil, err
	}
	defer gwStore.Close()
	o := &refOps{s: s, c: c}
	if o.gw, err = gateway.New(gatewayProducer, gwStore, c.Catalog()); err != nil {
		return nil, err
	}
	if err := c.AttachGateway(gatewayProducer, o.gw); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	server := transport.NewServer(c).SetAdmission(overload.NewGate(overload.Config{ActorRPS: -1}))
	srv := &http.Server{Handler: server}
	go srv.Serve(ln)
	defer srv.Close()
	o.client = transport.NewClient("http://"+ln.Addr().String(), nil, transport.WithCodec(s.codec))

	gids, err := load(s, o, in, func(person string) error {
		_, rerr := c.RecordConsent(consent.Directive{PersonID: person, Allow: false, Scope: familyDoctorOptOut})
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	// The reference's subscribers do the work the stack's do, so both
	// sides publish into the same competition for the processor.
	if len(s.subscribers) > 0 {
		sink, err := newCallbackSink(s.codec)
		if err != nil {
			return nil, err
		}
		defer sink.close()
		for _, actor := range s.subscribers {
			if _, err := c.Subscribe(actor, s.flowClass.Class(), func(n *event.Notification) {
				defer o.deliveries.Done()
				if body, err := s.codec.EncodeNotification(n); err == nil {
					sink.send(body)
				}
			}); err != nil {
				return nil, err
			}
			o.subs++
		}
	}
	o.timed = true
	for i := range flows {
		o.viaHTTP = i%2 == 1
		if _, err := runFlow(s, o, &flows[i], in.history, gids); err != nil {
			return nil, fmt.Errorf("flow %d: %w", i, err)
		}
	}
	return &o.out, nil
}
