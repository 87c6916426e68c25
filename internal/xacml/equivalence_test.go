package xacml_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/idmap"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/xacml"
)

// The small scope of the equivalence proof: three policy actors with a
// hierarchy, requesters that are the actors, a department, a
// sub-department, a name that shares a prefix without being a child
// ("ab") and a stranger; two classes; three purposes (plus one no policy
// grants); four fields.
var (
	eqActors     = []event.Actor{"a", "a/b", "c"}
	eqRequesters = []event.Actor{"a", "a/b", "a/b/c", "ab", "c", "z"}
	eqClasses    = []event.ClassID{"k.x", "k.y"}
	eqPurposes   = []event.Purpose{"p1", "p2", "p3"}
	eqFields     = []event.FieldName{"f1", "f2", "f3", "f4"}
)

const eqProducer = event.ProducerID("prod")

// Validity windows are built from two bounds; every request instant sits
// on a bound or one nanosecond either side of it.
var (
	eqT1      = time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC)
	eqT2      = time.Date(2010, 9, 1, 0, 0, 0, 0, time.UTC)
	eqCreated = time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)
)

type window struct {
	name          string
	from, until   time.Time
	outOfWireSpan bool // a bound outside 1678-2262: Validate must refuse it
}

var (
	eqNoWindow = window{name: "none"}
	eqClosed   = window{name: "closed", from: eqT1, until: eqT2}
	eqExpired  = window{name: "expired", from: eqT1.AddDate(-1, 0, 0), until: eqT1.AddDate(0, 0, -1)}
	eqWindows  = []window{
		eqNoWindow,
		{name: "from", from: eqT1},
		{name: "until", until: eqT2},
		eqClosed,
		eqExpired,
	}
	// Bounds RFC 3339 cannot write (year 10000) or the binary wire cannot
	// carry (1600): both forms of the policy must never see them.
	eqOutOfRange = []window{
		{name: "until-10000", until: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), outOfWireSpan: true},
		{name: "from-1600", from: time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), outOfWireSpan: true},
	}
	// The zero instant means "now" to both evaluators; every window above
	// has closed by then.
	eqInstants = []time.Time{
		eqT1.Add(-1), eqT1, eqT1.Add(1),
		eqT2.Add(-1), eqT2, eqT2.Add(1),
		{},
	}
)

// shape is one policy of the scope, before the repository assigns its id.
type shape struct {
	actor    event.Actor
	class    event.ClassID
	purposes []event.Purpose
	window   window
	fields   []event.FieldName
}

func (s shape) policy(created time.Time) *policy.Policy {
	return &policy.Policy{
		Producer: eqProducer, Actor: s.actor, Class: s.class,
		Purposes: s.purposes, Fields: s.fields,
		NotBefore: s.window.from, NotAfter: s.window.until,
		CreatedAt: created,
	}
}

func (s shape) String() string {
	return fmt.Sprintf("{%s %s %v %s %v}", s.actor, s.class, s.purposes, s.window.name, s.fields)
}

// subsets returns every non-empty subset of xs.
func subsets[T any](xs []T) [][]T {
	var out [][]T
	for mask := 1; mask < 1<<len(xs); mask++ {
		var s []T
		for i, x := range xs {
			if mask&(1<<i) != 0 {
				s = append(s, x)
			}
		}
		out = append(out, s)
	}
	return out
}

// probe is one point of the request space with its XACML form, compiled
// once for every policy set.
type probe struct {
	r *event.DetailRequest
	x *xacml.Request
}

func probes(ids map[event.ClassID]event.GlobalID, classes []event.ClassID, purposes []event.Purpose) []probe {
	var out []probe
	for _, who := range eqRequesters {
		for _, class := range classes {
			for _, s := range purposes {
				for _, at := range eqInstants {
					r := &event.DetailRequest{Requester: who, Class: class, EventID: ids[class], Purpose: s, At: at}
					out = append(out, probe{r: r, x: xacml.CompileRequest(r)})
				}
			}
		}
	}
	return out
}

// eqScope holds what every policy set shares: the PIP's id map with one
// event per class, and a producer gateway holding each event's details
// with every scope field and one no policy grants.
type eqScope struct {
	t      *testing.T
	ids    *idmap.Map
	gw     *gateway.Gateway
	failed int
}

func newEqScope(t *testing.T) (*eqScope, map[event.ClassID]event.GlobalID) {
	sc := &eqScope{t: t, ids: idmap.New(store.OpenMemory())}
	var err error
	if sc.gw, err = gateway.New(eqProducer, store.OpenMemory(), nil); err != nil {
		t.Fatal(err)
	}
	events := map[event.ClassID]event.GlobalID{}
	for _, class := range eqClasses {
		src := event.SourceID("src-" + string(class))
		d := event.NewDetail(class, src, eqProducer).Set("secret", "s")
		for _, f := range eqFields {
			d.Set(f, "v-"+string(f))
		}
		if err := sc.gw.Persist(d); err != nil {
			t.Fatal(err)
		}
		if events[class], err = sc.ids.Assign(eqProducer, src, class); err != nil {
			t.Fatal(err)
		}
	}
	return sc, events
}

func (sc *eqScope) errorf(set []shape, format string, args ...any) {
	sc.t.Helper()
	sc.t.Errorf("policies %v: "+format, append([]any{set}, args...)...)
	if sc.failed++; sc.failed >= 20 {
		sc.t.Fatal("too many disagreements; stopping")
	}
}

// check installs one policy set, with the given creation instants, and
// checks (i)-(iii) for every probe.
func (sc *eqScope) check(set []shape, created []time.Time, reqs []probe) {
	sc.t.Helper()
	enf, err := enforcer.New(policy.NewRepository(), sc.ids)
	if err != nil {
		sc.t.Fatal(err)
	}
	if err := enf.AttachGateway(eqProducer, sc.gw); err != nil {
		sc.t.Fatal(err)
	}
	repo := enf.Repository()
	pdp, err := xacml.NewPDP(xacml.FirstApplicable)
	if err != nil {
		sc.t.Fatal(err)
	}
	var stored []*policy.Policy
	for i, s := range set {
		p, err := enf.AddPolicy(s.policy(created[i]))
		switch {
		case s.window.outOfWireSpan && errors.Is(err, event.ErrTimeRange):
			return // refused, as it must be
		case err != nil:
			sc.t.Fatalf("AddPolicy(%v): %v", s, err)
		case s.window.outOfWireSpan:
			sc.errorf(set, "AddPolicy accepted window %s, which neither the XACML nor the persisted form can carry", s.window.name)
		}
		compiled, err := xacml.Compile(p)
		if err != nil {
			sc.errorf(set, "Compile(%s): %v", p.ID, err)
			return
		}
		if err := pdp.Add(compiled); err != nil {
			sc.t.Fatal(err)
		}
		stored = append(stored, p)
	}
	export, err := xacml.CompileProducerSet(eqProducer, stored)
	if err != nil {
		sc.t.Fatal(err)
	}

	for _, q := range reqs {
		// Per policy: Definition 3 holds exactly when the compiled policy
		// permits, and the compiled policy never answers anything but
		// Permit or NotApplicable.
		for _, p := range stored {
			one := pdp.EvaluateOne(string(p.ID), q.x)
			if d := one.Decision; d != xacml.Permit && d != xacml.NotApplicable || p.Matches(q.r) != (d == xacml.Permit) {
				sc.errorf(set, "%+v: %s matches=%v, compiled says %s", *q.r, p.ID, p.Matches(q.r), d)
			}
		}

		// (i) the policy Match selects is the one the compiled policy and
		// the first-applicable export both name, with the same fields.
		mID, mFields, merr := repo.MatchFields(q.r)
		if merr != nil && !errors.Is(merr, policy.ErrNotFound) {
			sc.t.Fatal(merr)
		}
		exp := export.Evaluate(q.x)
		if merr != nil {
			if exp.Decision != xacml.NotApplicable {
				sc.errorf(set, "%+v: no match, export says %s by %s", *q.r, exp.Decision, exp.PolicyID)
			}
		} else {
			one := pdp.EvaluateOne(string(mID), q.x)
			if one.Decision != xacml.Permit || !slices.Equal(xacml.AuthorizedFields(&one), mFields) {
				sc.errorf(set, "%+v: Match %s %v, compiled says %s %v", *q.r, mID, mFields, one.Decision, xacml.AuthorizedFields(&one))
			}
			if exp.Decision != xacml.Permit || exp.PolicyID != string(mID) {
				sc.errorf(set, "%+v: Match %s, export says %s by %s", *q.r, mID, exp.Decision, exp.PolicyID)
			}
		}

		// (ii) Algorithm 1 permits exactly on a match and discloses exactly
		// the matched policy's fields; otherwise it denies.
		d, out, derr := enf.GetEventDetailsContext(context.Background(), q.r)
		if merr != nil {
			if !errors.Is(derr, enforcer.ErrDenied) || d != nil || out.Decision != event.Deny {
				sc.errorf(set, "%+v: no match, GetEventDetails = %v, %+v, %v", *q.r, d, out, derr)
			}
		} else if derr != nil || out.Decision != event.Permit || out.PolicyID != string(mID) ||
			!slices.Equal(out.Fields, mFields) || !d.ExposesOnly(mFields) || len(d.Fields) != len(mFields) {
			sc.errorf(set, "%+v: Match %s %v, GetEventDetails = %v, %+v, %v", *q.r, mID, mFields, d, out, derr)
		}
	}

	// (iii) a subscription is admitted exactly when some policy covers
	// (actor, class) at that instant.
	now := time.Now()
	for _, who := range eqRequesters {
		for _, class := range eqClasses {
			for _, at := range eqInstants {
				if at.IsZero() {
					at = now
				}
				want := false
				for _, p := range stored {
					want = want || covers(p, who, class, at)
				}
				if got := repo.AllowsSubscription(who, class, at); got != want {
					sc.errorf(set, "AllowsSubscription(%s, %s, %v) = %v, want %v", who, class, at, got, want)
				}
			}
		}
	}
}

// covers is the subscription rule restated independently: same class, the
// actor is the grantee or one of its departments, inside the window.
func covers(p *policy.Policy, who event.Actor, class event.ClassID, at time.Time) bool {
	return p.Class == class &&
		(who == p.Actor || strings.HasPrefix(string(who), string(p.Actor)+"/")) &&
		(p.NotBefore.IsZero() || !at.Before(p.NotBefore)) &&
		(p.NotAfter.IsZero() || !at.After(p.NotAfter))
}

// TestDefinition3EqualsCompiledXACML proves, over an exhaustive small
// scope, that the enforcer's one decision path (Definition 3 in
// internal/policy) and the compiled XACML agree, so XACML can be the
// export format and test oracle without being evaluated on requests.
//
// The scope is reduced by symmetries. Fields never influence either
// evaluator's decision, so they are swept over single-policy sets only,
// and there not crossed with the windows; larger sets give each policy a
// fixed field set. Purposes are interchangeable labels, so larger sets
// are probed with purpose p1 alone, and a three-policy set needs of each
// policy only whether it grants p1 ({p1} or {p2}) and whether it is
// valid at the probe instant (no window, a closed one, an expired one).
// Policies of different classes never meet in one decision: both
// evaluators key on the class first, so larger sets put every policy on
// class k.x.
func TestDefinition3EqualsCompiledXACML(t *testing.T) {
	sc, events := newEqScope(t)
	all := probes(events, eqClasses, append(eqPurposes[:len(eqPurposes):len(eqPurposes)], "p4"))
	onX := probes(events, eqClasses[:1], eqPurposes[:1])
	purposeSets := subsets(eqPurposes)
	at := func(offsets ...time.Duration) []time.Time {
		out := make([]time.Time, len(offsets))
		for i, o := range offsets {
			out[i] = eqCreated.Add(o)
		}
		return out
	}

	// One policy: every actor, class and purpose set, crossed with every
	// window (the out-of-range ones included) and with every field set.
	singles := 0
	for _, actor := range eqActors {
		for _, class := range eqClasses {
			for _, ps := range purposeSets {
				for _, w := range append(eqWindows[1:len(eqWindows):len(eqWindows)], eqOutOfRange...) {
					sc.check([]shape{{actor, class, ps, w, eqFields[:2]}}, at(0), all)
					singles++
				}
				for _, fs := range subsets(eqFields) {
					sc.check([]shape{{actor, class, ps, eqNoWindow, fs}}, at(0), all)
					singles++
				}
			}
		}
	}

	// Two policies: every ordered pair of (actor, purpose set, window),
	// with equal creation instants (the lower id wins a tie) and with
	// distinct ones (the newer wins).
	var pairShapes []shape
	for _, actor := range eqActors {
		for _, ps := range purposeSets {
			for _, w := range eqWindows {
				pairShapes = append(pairShapes, shape{actor, "k.x", ps, w, nil})
			}
		}
	}
	pairs := 0
	for _, a := range pairShapes {
		for _, b := range pairShapes {
			a.fields, b.fields = eqFields[:2], eqFields[1:3]
			for _, created := range [][]time.Time{at(0, 0), at(0, time.Second)} {
				sc.check([]shape{a, b}, created, onX)
				pairs++
			}
		}
	}

	// Three policies: every ordered triple over the reduced shape, with
	// all creation instants equal, all distinct, and two tied ahead of an
	// older third.
	var tripleShapes []shape
	for _, actor := range eqActors {
		for _, ps := range [][]event.Purpose{{"p1"}, {"p2"}} {
			for _, w := range []window{eqNoWindow, eqClosed, eqExpired} {
				tripleShapes = append(tripleShapes, shape{actor, "k.x", ps, w, nil})
			}
		}
	}
	triples := 0
	for _, a := range tripleShapes {
		for _, b := range tripleShapes {
			for _, c := range tripleShapes {
				a.fields, b.fields, c.fields = eqFields[:2], eqFields[1:3], eqFields[2:]
				for _, created := range [][]time.Time{at(0, 0, 0), at(0, time.Second, 2*time.Second), at(time.Second, time.Second, 0)} {
					sc.check([]shape{a, b, c}, created, onX)
					triples++
				}
			}
		}
	}
	t.Logf("%d single-policy sets x %d probes, %d pairs and %d triples x %d probes", singles, len(all), pairs, triples, len(onX))
}
