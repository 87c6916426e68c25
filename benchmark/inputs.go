package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/workload"
)

// spec describes one workload: what is stored before timing, what one
// flow does, and which processes serve it. The `why` of each is recorded
// in BENCHMARK.json and README.md.
type spec struct {
	name string
	// codec the controllers are started with and the clients speak.
	codec event.Codec
	// histClasses are the classes of the preloaded history.
	histClasses []*schema.Schema
	// flowClass is the class published while measuring; nil for the
	// read-only workload.
	flowClass *schema.Schema
	// details: history and flows carry detail messages, stored at a
	// css-gateway process attached to the controller.
	details bool
	// subscribers hold one callback subscription each on flowClass.
	subscribers []event.Actor
	// fleet: 2 shards x (primary + async follower) instead of one
	// controller.
	fleet bool
	// read: the inquire-then-request-details mix with must-deny flows.
	read bool
	// request names the client-visible call the request_* metrics time.
	request string
	// poolRate bounds flows per second when sizing the input pool.
	poolRate int
	// memFlows is the flow count at which peak memory is read, so that
	// peak_rss_mb is the memory the same work needs on a fast host and a
	// slow one, before and after a change in speed. About 60% of what a
	// 15 s run completes on the reference box.
	memFlows int
}

const gatewayProducer event.ProducerID = "hospital-s-maria"

func hospitalClasses() []*schema.Schema {
	return []*schema.Schema{schema.BloodTest(), schema.Discharge(), schema.Psychology()}
}

func municipalityClasses() []*schema.Schema {
	return []*schema.Schema{schema.HomeCare(), schema.FoodDelivery(), schema.HouseCleaning()}
}

// homeCareSubscribers are the three actors the standard policy set
// authorises on home-care events; the family doctors hold two endpoints.
var homeCareSubscribers = []event.Actor{"family-doctor", "family-doctor", "social-welfare/home-care", "caring-coop"}

func specs() []*spec {
	return []*spec{
		{name: "notify_fanout", codec: event.Binary, histClasses: municipalityClasses(),
			flowClass: schema.HomeCare(), subscribers: homeCareSubscribers,
			request: "Client.Publish", poolRate: 5000, memFlows: 20000},
		{name: "detail_read", codec: event.XML, histClasses: hospitalClasses(),
			details: true, read: true, request: "Client.RequestDetails", poolRate: 4000, memFlows: 8000},
		{name: "two_phase_mix", codec: event.XML, histClasses: hospitalClasses(),
			flowClass: schema.BloodTest(), details: true,
			subscribers: []event.Actor{"family-doctor", "family-doctor", "family-doctor"},
			request:     "Client.RequestDetails", poolRate: 2000, memFlows: 5000},
		{name: "fleet_publish", codec: event.Binary, histClasses: municipalityClasses(),
			flowClass: schema.HomeCare(), subscribers: []event.Actor{"family-doctor"},
			fleet: true, request: "ShardedClient.Publish", poolRate: 5000, memFlows: 12000},
	}
}

func specByName(name string) *spec {
	for _, s := range specs() {
		if s.name == name {
			return s
		}
	}
	return nil
}

// sizes fixes how much work set-up and the measured phase do.
type sizes struct {
	people  int
	history int // events stored before the daemons start
	warmup  int // flows run before timing
	// flows > 0 measures a fixed number of flows instead of a duration
	// (the -quick smoke).
	flows int
	// traced is the number of flows the in-process replay executes.
	traced int
}

var (
	fullSizes  = sizes{people: 5000, history: 20000, warmup: 300, traced: 5000}
	quickSizes = sizes{people: 5000, history: 2000, warmup: 100, flows: 1000, traced: 500}
)

// histEvent is one event of the stored history.
type histEvent struct {
	n *event.Notification
	d *event.Detail // nil when the workload stores no details
	// gid is assigned by the controller when the history is written.
	gid event.GlobalID
}

type flowKind uint8

const (
	flowPermit      flowKind = iota // must be answered with the policy's fields
	flowDenyPolicy                  // actor or purpose without a policy: must be denied
	flowDenyConsent                 // data subject opted out: must be denied
)

// flowInput is one pre-generated flow.
type flowInput struct {
	// Publish flows.
	n *event.Notification
	d *event.Detail
	// Read flows: the history event aimed at, a seeded pick among the
	// inquiry's results, and who asks why.
	target  int
	pick    int
	kind    flowKind
	actor   event.Actor
	purpose event.Purpose
}

// inputs is everything a run feeds the system, generated from the seed
// before any timing starts.
type inputs struct {
	history []histEvent
	// optOut lists the persons with a recorded opt-out against the
	// family doctors (read workload only), in record order.
	optOut []string
	// flows holds the warm-up flows first, then the measured pool.
	flows  []flowInput
	warmup int
	// standard is the scenario's standard policy set; policies tabulates
	// it as the governing field set per (actor, class, purpose).
	standard []*policy.Policy
	policies policyTable
}

type policyKey struct {
	actor   event.Actor
	class   event.ClassID
	purpose event.Purpose
}

type policyTable map[policyKey]map[event.FieldName]bool

// standardPolicies elicits the scenario's standard policies on a
// throw-away in-memory controller. They feed the oracle's table and the
// traced replay's enforcer; the daemons get the same policies through
// their data dirs.
func standardPolicies() ([]*policy.Policy, error) {
	c, err := core.New(core.Config{DefaultConsent: true, SpanSampleRate: -1})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	p, err := workload.Provision(c)
	if err != nil {
		return nil, err
	}
	return p.StandardPolicies()
}

func tabulate(pols []*policy.Policy) policyTable {
	t := policyTable{}
	for _, p := range pols {
		for _, s := range p.Purposes {
			k := policyKey{p.Actor, p.Class, s}
			if t[k] == nil {
				t[k] = map[event.FieldName]bool{}
			}
			for _, f := range p.Fields {
				t[k][f] = true
			}
		}
	}
	return t
}

// readWindow is the half-width of the occurrence-time window a read flow
// inquires around its target event: "what happened to this person around
// then". It bounds the result set whatever the person's activity.
const readWindow = 6 * time.Hour

// generate builds the inputs of one run. poolSeconds sizes the measured
// pool (poolRate flows per second); sz.flows overrides it.
func generate(s *spec, seed int64, sz sizes, poolSeconds int) (*inputs, error) {
	in := &inputs{warmup: sz.warmup}
	var err error
	if in.standard, err = standardPolicies(); err != nil {
		return nil, err
	}
	in.policies = tabulate(in.standard)
	hist := workload.NewGenerator(workload.Config{Seed: seed, People: sz.people, ZipfS: 1.2, Classes: s.histClasses})
	in.history = make([]histEvent, sz.history)
	for i := range in.history {
		n, d := hist.Next()
		if !s.details {
			d = nil
		}
		in.history[i] = histEvent{n: n, d: d}
	}
	pool := sz.flows
	if pool == 0 {
		pool = poolSeconds * s.poolRate
	}
	total := sz.warmup + pool
	in.flows = make([]flowInput, total)
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	if s.read {
		in.generateReads(rnd)
		return in, nil
	}
	// Published flows come from a second stream over the flow class. Its
	// source ids restart at 1, so they are renamed to stay distinct from
	// the history's (publish is idempotent on producer + source id).
	gen := workload.NewGenerator(workload.Config{Seed: seed ^ 0x0f10f10f, People: sz.people, ZipfS: 1.2,
		Classes: []*schema.Schema{s.flowClass}})
	for i := range in.flows {
		n, d := gen.Next()
		n.SourceID = event.SourceID(fmt.Sprintf("flow-%08d", i+1))
		d.SourceID = n.SourceID
		if !s.details {
			d = nil
		}
		in.flows[i] = flowInput{n: n, d: d, actor: "family-doctor", purpose: event.PurposeHealthcareTreatment}
	}
	return in, nil
}

// generateReads fills the read workload: 85% permitted requests, 10%
// requests by an actor or for a purpose no policy covers, 5% requests
// about persons who opted out. Targets are drawn uniformly over history
// events, so persons are hit in proportion to their (Zipf) activity.
func (in *inputs) generateReads(rnd *rand.Rand) {
	// Opt-outs: 3% of the persons that have events, never the twenty
	// most active (those carry the cache-hit share of the workload).
	count := map[string]int{}
	for _, h := range in.history {
		count[h.n.PersonID]++
	}
	persons := make([]string, 0, len(count))
	for p := range count {
		persons = append(persons, p)
	}
	sort.Slice(persons, func(i, j int) bool {
		if count[persons[i]] != count[persons[j]] {
			return count[persons[i]] > count[persons[j]]
		}
		return persons[i] < persons[j]
	})
	tail := persons
	if len(tail) > 20 {
		tail = tail[20:]
	}
	opted := map[string]bool{}
	for _, i := range rnd.Perm(len(tail))[:(len(tail)*3+99)/100] {
		opted[tail[i]] = true
		in.optOut = append(in.optOut, tail[i])
	}
	sort.Strings(in.optOut)
	var open, closed []int
	for i, h := range in.history {
		if opted[h.n.PersonID] {
			closed = append(closed, i)
		} else {
			open = append(open, i)
		}
	}
	for i := range in.flows {
		f := flowInput{actor: "family-doctor", purpose: event.PurposeHealthcareTreatment, pick: rnd.Intn(1 << 30)}
		switch r := rnd.Intn(100); {
		case r < 5 && len(closed) > 0:
			f.kind = flowDenyConsent
			f.target = closed[rnd.Intn(len(closed))]
		case r < 15:
			f.kind = flowDenyPolicy
			f.target = open[rnd.Intn(len(open))]
			if r%2 == 0 {
				f.actor = "hospital-s-maria/ward" // a consumer no policy names
			} else {
				f.purpose = event.PurposeStatisticalAnalysis // a purpose no hospital policy admits
			}
		default:
			f.target = open[rnd.Intn(len(open))]
		}
		in.flows[i] = f
	}
}

// digest hashes the generated inputs in a canonical byte form: equal
// seeds must give equal digests.
func (in *inputs) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, e := range in.history {
		hashNotification(h, e.n)
		hashDetail(h, e.d)
	}
	for _, p := range in.optOut {
		hashString(h, p)
	}
	for _, f := range in.flows {
		hashNotification(h, f.n)
		hashDetail(h, f.d)
		var b [17]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(f.target))
		binary.LittleEndian.PutUint64(b[8:], uint64(f.pick))
		b[16] = byte(f.kind)
		h.Write(b[:])
		hashString(h, string(f.actor))
		hashString(h, string(f.purpose))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func hashString(h hash.Hash, s string) {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
	h.Write(l[:])
	h.Write([]byte(s))
}

func hashNotification(h hash.Hash, n *event.Notification) {
	if n == nil {
		hashString(h, "")
		return
	}
	for _, s := range []string{string(n.SourceID), string(n.Class), n.PersonID, n.Summary,
		n.OccurredAt.UTC().Format(time.RFC3339Nano), string(n.Producer)} {
		hashString(h, s)
	}
}

func hashDetail(h hash.Hash, d *event.Detail) {
	if d == nil {
		hashString(h, "")
		return
	}
	hashString(h, string(d.SourceID))
	names := d.FieldNames()
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, f := range names {
		hashString(h, string(f))
		hashString(h, d.Fields[f])
	}
}
