package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consent"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/replication"
	"repro/internal/schema"
)

// replRig wires a primary controller to a replica controller over a
// real replication link, each role held by its replication node.
type replRig struct {
	primary *Controller
	replica *Controller
	pri     *replication.Node
	rep     *replication.Node
}

// attachNode starts the replication node for c in the given role and
// attaches it.
func attachNode(t *testing.T, c *Controller, role string, quorum bool, peers ...string) *replication.Node {
	t.Helper()
	stores, err := c.ReplStores()
	if err != nil {
		t.Fatal(err)
	}
	n, err := replication.NewNode(replication.NodeConfig{
		Role: role, DataDir: c.cfg.DataDir, Stores: stores, Listen: "127.0.0.1:0",
		Peers: peers, Quorum: quorum,
		Promote: c.Promote, OnApply: c.OnReplicatedApply,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	c.AttachReplication(n)
	return n
}

func newReplRig(t *testing.T, quorum bool) *replRig {
	t.Helper()
	key := bytes.Repeat([]byte{7}, crypto.KeySize)
	primary, err := New(Config{DataDir: t.TempDir(), MasterKey: key, DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	replica, err := New(Config{DataDir: t.TempDir(), MasterKey: key, DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	rep := attachNode(t, replica, replication.RoleReplica, quorum)
	pri := attachNode(t, primary, replication.RolePrimary, quorum, rep.Addr())
	return &replRig{primary: primary, replica: replica, pri: pri, rep: rep}
}

// waitReplicated blocks until the replica's stores hold everything the
// primary's do.
func (r *replRig) waitReplicated(t *testing.T) {
	t.Helper()
	ps, _ := r.primary.ReplStores()
	rs, _ := r.replica.ReplStores()
	deadline := time.Now().Add(5 * time.Second)
	for {
		caught := true
		for i, ns := range ps {
			if rs[i].Store.WALOffset() != ns.Store.WALOffset() {
				caught = false
				break
			}
		}
		if caught {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func provision(t *testing.T, c *Controller) {
	t.Helper()
	if err := c.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterConsumer("family-doctor", "Family doctors"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefinePolicy(&policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id"},
	}); err != nil {
		t.Fatal(err)
	}
}

func publishN(t *testing.T, c *Controller, n int) []event.GlobalID {
	t.Helper()
	gids := make([]event.GlobalID, 0, n)
	for i := 0; i < n; i++ {
		gid, err := c.Publish(&event.Notification{
			Producer: "hospital", SourceID: event.SourceID(fmt.Sprintf("src-%03d", i)),
			Class: schema.ClassBloodTest, PersonID: fmt.Sprintf("person-%02d", i%7),
			OccurredAt: time.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
	}
	return gids
}

// TestReplicaRefusesEveryFlow pins the standby rule: a replica answers
// every access and write flow — index inquiries included — with the
// not-primary redirect and appends nothing to the replicated audit
// chain, so every answered request is decided and logged on the
// primary's.
func TestReplicaRefusesEveryFlow(t *testing.T) {
	rig := newReplRig(t, true)
	provision(t, rig.primary)
	publishN(t, rig.primary, 25)
	rig.waitReplicated(t)
	// The applied WAL can be ahead of the apply callback's chain-head
	// refresh; read the head from the store.
	if err := rig.replica.Audit().Recover(); err != nil {
		t.Fatal(err)
	}
	primLen := rig.primary.Audit().Len()
	if rl := rig.replica.Audit().Len(); rl != primLen {
		t.Fatalf("replica audit len %d != primary %d before any refusal", rl, primLen)
	}

	var np *cluster.NotPrimaryError
	refused := func(what string, err error) {
		t.Helper()
		if !errors.As(err, &np) {
			t.Errorf("replica %s = %v, want NotPrimaryError", what, err)
		}
		if rl := rig.replica.Audit().Len(); rl != primLen {
			t.Errorf("replica %s: audit len %d, want %d (refusals are not audited)", what, rl, primLen)
		}
	}
	got, err := rig.replica.InquireIndex("family-doctor", index.Inquiry{Class: schema.ClassBloodTest})
	if len(got) != 0 {
		t.Errorf("replica inquiry disclosed %d notifications", len(got))
	}
	refused("inquiry", err)
	own, err := rig.replica.InquireOwn("person-03", index.Inquiry{})
	if len(own) != 0 {
		t.Errorf("replica own inquiry disclosed %d notifications", len(own))
	}
	refused("own inquiry", err)
	_, err = rig.replica.Publish(&event.Notification{
		Producer: "hospital", SourceID: "x", Class: schema.ClassBloodTest, PersonID: "p", OccurredAt: time.Now(),
	})
	refused("publish", err)
	_, err = rig.replica.RecordConsent(consent.Directive{PersonID: "p"})
	refused("consent", err)
	refused("register", rig.replica.RegisterProducer("lab", "Lab"))
	_, err = rig.replica.Subscribe("family-doctor", schema.ClassBloodTest, func(*event.Notification) {})
	refused("subscribe", err)
	_, err = rig.replica.RequestDetails(&event.DetailRequest{
		Requester: "family-doctor", EventID: "e", Class: schema.ClassBloodTest,
		Purpose: event.PurposeHealthcareTreatment,
	})
	refused("details", err)
}

func TestPromoteReplicaAcceptsWritesWithIntactChain(t *testing.T) {
	rig := newReplRig(t, false)
	provision(t, rig.primary)
	gids := publishN(t, rig.primary, 40)
	// An opt-out recorded on the primary before failover binds the
	// promoted node's first inquiry.
	if _, err := rig.primary.RecordConsent(consent.Directive{
		PersonID: "person-03", Allow: false,
	}); err != nil {
		t.Fatal(err)
	}
	rig.waitReplicated(t)

	// Primary dies; the surviving replica is promoted at the next epoch.
	rig.pri.Close()
	rig.primary.Close()
	if err := rig.rep.Promote(2); err != nil {
		t.Fatal(err)
	}
	if rig.replica.IsReplica() {
		t.Fatal("promoted node still reports replica")
	}
	if e := rig.rep.Status().Epoch; e != 2 {
		t.Fatalf("promoted epoch = %d, want 2", e)
	}

	// The replicated audit chain verifies end-to-end on the promoted
	// node, and new appends extend it without a fork.
	if err := rig.replica.Audit().Verify(); err != nil {
		t.Fatalf("audit chain on promoted node: %v", err)
	}
	got, err := rig.replica.InquireIndex("family-doctor", index.Inquiry{Class: schema.ClassBloodTest})
	if err != nil {
		t.Fatalf("inquiry on promoted node: %v", err)
	}
	if want := len(gids) - 6; len(got) != want { // person-03 published 6 of 40
		t.Fatalf("promoted inquiry returned %d notifications, want %d", len(got), want)
	}
	for _, n := range got {
		if n.PersonID == "person-03" {
			t.Fatal("opted-out subject visible on the promoted node")
		}
	}
	before := rig.replica.Audit().Len()
	gid, err := rig.replica.Publish(&event.Notification{
		Producer: "hospital", SourceID: "post-failover", Class: schema.ClassBloodTest,
		PersonID: "person-99", OccurredAt: time.Now(),
	})
	if err != nil {
		t.Fatalf("publish on promoted node: %v", err)
	}
	if err := rig.replica.Audit().Verify(); err != nil {
		t.Fatalf("audit chain after post-failover publish: %v", err)
	}
	if rig.replica.Audit().Len() != before+1 {
		t.Fatal("post-failover publish did not extend the chain")
	}

	// Exactly-once across failover: every pre-failover event is present
	// exactly once, and a producer retry of an old source id gets its
	// original global id back.
	n, err := rig.replica.IndexLen()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(gids)+1 {
		t.Fatalf("promoted index holds %d events, want %d", n, len(gids)+1)
	}
	retry, err := rig.replica.Publish(&event.Notification{
		Producer: "hospital", SourceID: "src-005", Class: schema.ClassBloodTest,
		PersonID: "person-05", OccurredAt: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if retry != gids[5] {
		t.Fatalf("retried publish minted a new id %s (want %s)", retry, gids[5])
	}
	if gid == retry {
		t.Fatal("fresh publish reused an old id")
	}

	// Promote is a one-way door.
	if err := rig.rep.Promote(3); !errors.Is(err, replication.ErrNotReplica) {
		t.Fatalf("second promote = %v, want ErrNotReplica", err)
	}
}
