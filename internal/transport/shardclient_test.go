package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/store"
)

// shardRig is an in-process cluster: n controller shards sharing one
// master key (so every shard computes identical pseudonyms), each
// behind its own httptest server, with one hospital gateway attached
// to all of them.
type shardRig struct {
	ctrls   []*core.Controller
	servers []*testServer
	gw      *gateway.Gateway
	m       *cluster.Map
	sc      *ShardedClient
}

func newShardRig(t *testing.T, n int, opts ...ShardedOption) *shardRig {
	t.Helper()
	key := bytes.Repeat([]byte{7}, crypto.KeySize)

	// The map must exist before the controllers (each shard is born
	// knowing its assignment), but shard addresses are only known once
	// the listeners are bound — so bind first, serve later.
	servers := make([]*testServer, n)
	shards := make([]cluster.ShardInfo, n)
	for i := range servers {
		servers[i] = newUnstartedTestServer(t)
		shards[i] = cluster.ShardInfo{ID: cluster.ShardID(i), Addr: servers[i].URL}
	}
	m, err := cluster.NewMap(1, 0, shards)
	if err != nil {
		t.Fatal(err)
	}

	r := &shardRig{m: m}
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r.gw = gw
	gwServer := newTestServer(t, testGatewayServer(gw))
	t.Cleanup(gwServer.Close)

	for i := 0; i < n; i++ {
		ctrl, err := core.New(core.Config{
			MasterKey:      key,
			DefaultConsent: true,
			ShardID:        cluster.ShardID(i),
			ShardMap:       m,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ctrl.Close() })
		if err := ctrl.RegisterProducer("hospital", "Hospital"); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.RegisterConsumer("family-doctor", "Doctors"); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.AttachGateway("hospital", NewRemoteGateway(gwServer.URL, nil)); err != nil {
			t.Fatal(err)
		}
		// The canonical disclosure policy on every shard: inquiries and
		// subscriptions must be authorized wherever they land.
		if _, err := ctrl.DefinePolicy(doctorBloodPolicy()); err != nil {
			t.Fatal(err)
		}
		srv := servers[i]
		srv.Start(NewServer(ctrl))
		t.Cleanup(srv.Close)
		r.ctrls = append(r.ctrls, ctrl)
		r.servers = append(r.servers, srv)
	}

	sc, err := NewShardedClient(m, func(info cluster.ShardInfo) *Client {
		return NewClient(info.Addr, nil)
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r.sc = sc
	return r
}

func (r *shardRig) note(person string, i int) *event.Notification {
	return &event.Notification{
		SourceID: event.SourceID(fmt.Sprintf("src-%s-%d", person, i)),
		Class:    schema.ClassBloodTest, PersonID: person,
		Summary:    "blood test",
		OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Producer:   "hospital",
	}
}

// metricValue reads one unlabeled counter out of a controller's
// telemetry registry via its Prometheus rendering.
func metricValue(t *testing.T, c *core.Controller, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

// indexTotal sums the events held across every shard's index.
func (r *shardRig) indexTotal(t *testing.T) int {
	t.Helper()
	total := 0
	for _, c := range r.ctrls {
		n, err := c.IndexLen()
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return total
}

// TestShardedPublishByRedirect routes with no pseudonym function: each
// publish guesses from the raw person id, and the wrong-shard fault
// names the owner when the guess is wrong, in the second round as in
// the first (the client learns no routes). Every event must land
// exactly once, on its owning shard.
func TestShardedPublishByRedirect(t *testing.T) {
	r := newShardRig(t, 3)
	ctx := context.Background()
	const persons = 20
	for p := 0; p < persons; p++ {
		person := fmt.Sprintf("PRS-%03d", p)
		if _, err := r.sc.Publish(ctx, r.note(person, 0)); err != nil {
			t.Fatalf("publish %s: %v", person, err)
		}
	}
	// Second round: the same guesses, corrected by the same redirects.
	for p := 0; p < persons; p++ {
		person := fmt.Sprintf("PRS-%03d", p)
		if _, err := r.sc.Publish(ctx, r.note(person, 1)); err != nil {
			t.Fatalf("re-publish %s: %v", person, err)
		}
	}
	if got := r.indexTotal(t); got != 2*persons {
		t.Fatalf("cluster index holds %d events, want %d", got, 2*persons)
	}
	// Exactly-once placement: each shard holds only pseudonyms it owns.
	for _, c := range r.ctrls {
		self := c.ShardID()
		for p := 0; p < persons; p++ {
			person := fmt.Sprintf("PRS-%03d", p)
			notes, err := c.InquireIndex("family-doctor", index.Inquiry{PersonID: person})
			if err != nil {
				t.Fatal(err)
			}
			owner := r.m.Owner(c.Pseudonym(person))
			if len(notes) > 0 && owner != self {
				t.Fatalf("shard %s holds %d events for %s owned by %s", self, len(notes), person, owner)
			}
			if owner == self && len(notes) != 2 {
				t.Fatalf("owner %s holds %d events for %s, want 2", self, len(notes), person)
			}
		}
	}
	// The balance sanity: three shards, twenty persons — no shard
	// should be empty (probability of an empty shard is negligible).
	for _, c := range r.ctrls {
		n, err := c.IndexLen()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			id := c.ShardID()
			t.Fatalf("shard %s is empty: hash routing is degenerate", id)
		}
	}
}

// TestShardedPublishWithPseudonym computes owners locally: no
// discovery redirect is ever needed, and the wrong-shard counter stays
// untouched on every shard.
func TestShardedPublishWithPseudonym(t *testing.T) {
	r := newShardRig(t, 3)
	sc, err := NewShardedClient(r.m, func(info cluster.ShardInfo) *Client {
		return NewClient(info.Addr, nil)
	}, WithPseudonym(r.ctrls[0].Pseudonym))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const persons = 12
	for p := 0; p < persons; p++ {
		if _, err := sc.Publish(ctx, r.note(fmt.Sprintf("PRX-%03d", p), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.indexTotal(t); got != persons {
		t.Fatalf("cluster index holds %d events, want %d", got, persons)
	}
	for _, c := range r.ctrls {
		if n := metricValue(t, c, "css_cluster_wrong_shard_total"); n != 0 {
			id := c.ShardID()
			t.Fatalf("shard %s saw %v wrong-shard publishes with local routing", id, n)
		}
	}
}

// TestShardedInquireScatter publishes across all shards and inquires
// by class: the replies must scatter, merge in stable (OccurredAt, id)
// order, and honor the limit.
func TestShardedInquireScatter(t *testing.T) {
	r := newShardRig(t, 3)
	ctx := context.Background()
	const persons, each = 9, 3
	for p := 0; p < persons; p++ {
		person := fmt.Sprintf("PRQ-%03d", p)
		for i := 0; i < each; i++ {
			if _, err := r.sc.Publish(ctx, r.note(person, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	notes, err := r.sc.InquireIndex(ctx, "family-doctor", index.Inquiry{Class: schema.ClassBloodTest})
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != persons*each {
		t.Fatalf("scatter inquiry returned %d notifications, want %d", len(notes), persons*each)
	}
	for i := 1; i < len(notes); i++ {
		a, b := notes[i-1], notes[i]
		if a.OccurredAt.After(b.OccurredAt) ||
			(a.OccurredAt.Equal(b.OccurredAt) && a.ID > b.ID) {
			t.Fatalf("merge order violated at %d: (%s,%s) before (%s,%s)",
				i, a.OccurredAt, a.ID, b.OccurredAt, b.ID)
		}
	}
	limited, err := r.sc.InquireIndex(ctx, "family-doctor", index.Inquiry{Class: schema.ClassBloodTest, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 5 {
		t.Fatalf("limited scatter returned %d, want 5", len(limited))
	}
	if limited[0].ID != notes[0].ID {
		t.Fatal("limited scatter does not start at the merged head")
	}
}

// TestShardedInquirePartialResult kills one shard: the inquiry must
// return the surviving shards' merged events together with a
// *cluster.PartialError naming the dead one.
func TestShardedInquirePartialResult(t *testing.T) {
	r := newShardRig(t, 3)
	ctx := context.Background()
	const persons = 9
	for p := 0; p < persons; p++ {
		if _, err := r.sc.Publish(ctx, r.note(fmt.Sprintf("PRP-%03d", p), 0)); err != nil {
			t.Fatal(err)
		}
	}
	alive := 0
	for i, c := range r.ctrls {
		n, err := c.IndexLen()
		if err != nil {
			t.Fatal(err)
		}
		if i != 1 {
			alive += n
		}
		_ = n
	}
	r.servers[1].Close()

	notes, err := r.sc.InquireIndex(ctx, "family-doctor", index.Inquiry{Class: schema.ClassBloodTest})
	if err == nil {
		t.Fatal("inquiry with a dead shard returned no error")
	}
	if !errors.Is(err, cluster.ErrPartialResult) {
		t.Fatalf("error %v does not wrap ErrPartialResult", err)
	}
	var pe *cluster.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *cluster.PartialError", err)
	}
	if _, ok := pe.Failed[1]; !ok || len(pe.Failed) != 1 {
		t.Fatalf("PartialError.Failed = %v, want exactly shard-1", pe.Failed)
	}
	if len(notes) != alive {
		t.Fatalf("partial inquiry returned %d notifications, want %d from live shards", len(notes), alive)
	}
}

// TestShardedDetails resolves a detail request at the shard its event
// id names, and an unknown event is disclaimed by that one shard with
// the usual sentinel.
func TestShardedDetails(t *testing.T) {
	r := newShardRig(t, 3)
	ctx := context.Background()
	person := "PRD-001"
	d := event.NewDetail(schema.ClassBloodTest, "src-d1", "hospital").
		Set("patient-id", person).
		Set("exam-date", "2010-05-30").
		Set("hemoglobin", "14.2").
		Set("aids-test", "negative")
	if err := r.gw.Persist(d); err != nil {
		t.Fatal(err)
	}
	n := r.note(person, 0)
	n.SourceID = "src-d1"
	gid, err := r.sc.Publish(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	// Policy on every shard so whichever owner answers may disclose.
	if _, err := r.sc.DefinePolicy(ctx, doctorBloodPolicy()); err != nil {
		t.Fatal(err)
	}
	det, err := r.sc.RequestDetails(ctx, &event.DetailRequest{
		EventID: gid, Class: schema.ClassBloodTest, Requester: "family-doctor",
		Purpose: event.PurposeHealthcareTreatment,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := det.Get("hemoglobin"); !ok || got != "14.2" {
		t.Fatalf("detail hemoglobin = %q (ok=%v)", got, ok)
	}

	const unknown = "evt-ffffffffffffffffffffffffffffffff"
	before := make([]uint64, len(r.ctrls))
	for i, c := range r.ctrls {
		before[i] = c.Audit().Len()
	}
	if _, err := r.sc.RequestDetails(ctx, &event.DetailRequest{
		EventID: unknown, Class: schema.ClassBloodTest,
		Requester: "family-doctor",
		Purpose:   event.PurposeHealthcareTreatment,
	}); !errors.Is(err, enforcer.ErrUnknownEvent) {
		t.Fatalf("unknown event error = %v", err)
	}
	for i, c := range r.ctrls {
		asked := cluster.ShardID(i) == r.m.Owner(unknown)
		if grew := c.Audit().Len() > before[i]; grew != asked {
			t.Errorf("shard %d audited the unknown event: %v, want %v", i, grew, asked)
		}
	}
}

// TestFreshClientDetailsAuditOnlyOwner requests details through a
// client that published nothing: each request reaches only the shard
// that owns the event, so every request is permitted once and no other
// shard's audit chain records a denial no consumer was given.
func TestFreshClientDetailsAuditOnlyOwner(t *testing.T) {
	r := newShardRig(t, 3)
	ctx := context.Background()
	if _, err := r.sc.DefinePolicy(ctx, doctorBloodPolicy()); err != nil {
		t.Fatal(err)
	}
	const events = 6
	gids := make([]event.GlobalID, events)
	for i := range gids {
		person := fmt.Sprintf("PRF-%03d", i)
		n := r.note(person, i)
		d := event.NewDetail(schema.ClassBloodTest, n.SourceID, "hospital").
			Set("patient-id", person).
			Set("exam-date", "2010-05-30").
			Set("hemoglobin", "14.2")
		if err := r.gw.Persist(d); err != nil {
			t.Fatal(err)
		}
		gid, err := r.sc.Publish(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		gids[i] = gid
	}

	fresh, err := NewShardedClient(r.m, func(info cluster.ShardInfo) *Client {
		return NewClient(info.Addr, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, gid := range gids {
		if _, err := fresh.RequestDetails(ctx, &event.DetailRequest{
			EventID: gid, Class: schema.ClassBloodTest, Requester: "family-doctor",
			Purpose: event.PurposeHealthcareTreatment,
		}); err != nil {
			t.Fatalf("details of %s: %v", gid, err)
		}
	}
	permits := 0
	for i, c := range r.ctrls {
		recs, err := c.Audit().Search(audit.Query{Kind: audit.KindDetailRequest})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			switch {
			case rec.Outcome == "permit" && r.m.Owner(string(rec.EventID)) == cluster.ShardID(i):
				permits++
			case rec.Outcome == "deny":
				t.Errorf("shard %d audited a deny for %s: %s", i, rec.EventID, rec.Note)
			}
		}
	}
	if permits != events {
		t.Fatalf("owners' audit chains hold %d permits, want %d", permits, events)
	}
}

// TestShardedSubscribeBroadcast fans a subscription across every shard
// and checks cluster-wide delivery: events published to different
// shards all reach the one consumer endpoint.
func TestShardedSubscribeBroadcast(t *testing.T) {
	r := newShardRig(t, 3)
	ctx := context.Background()

	got := make(chan event.GlobalID, 32)
	recv := httptest.NewServer(NewNotificationReceiver(func(n *event.Notification) {
		got <- n.ID
	}))
	t.Cleanup(recv.Close)

	ids, err := r.sc.Subscribe(ctx, "family-doctor", schema.ClassBloodTest, recv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("broadcast subscribe returned %d ids, want 3", len(ids))
	}
	const persons = 9
	want := make(map[event.GlobalID]bool, persons)
	for p := 0; p < persons; p++ {
		gid, err := r.sc.Publish(ctx, r.note(fmt.Sprintf("PRS-%03d", p), 0))
		if err != nil {
			t.Fatal(err)
		}
		want[gid] = true
	}
	deadline := time.After(5 * time.Second)
	for len(want) > 0 {
		select {
		case gid := <-got:
			delete(want, gid)
		case <-deadline:
			t.Fatalf("%d notifications never delivered", len(want))
		}
	}
}

// doctorBloodPolicy is the canonical disclosure policy of the suite.
func doctorBloodPolicy() *policy.Policy {
	return &policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	}
}
