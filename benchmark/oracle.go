package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/transport"
)

// errPrivacy marks a failure that is a breach of the paper's guarantees
// (a field outside the governing policy, a wrong value, data released on a
// must-deny request, a notification about an opted-out person). Any of
// them makes the command exit non-zero.
var errPrivacy = errors.New("PRIVACY VIOLATION")

func privacyf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errPrivacy}, args...)...)
}

// oracle is the reference the system's answers are checked against: what
// the generator stored, which fields each policy governs, which requests
// must be denied.
type oracle struct {
	in    *inputs
	byGID map[event.GlobalID]int // history index by assigned id

	violations atomic.Int64
}

func newOracle(in *inputs) *oracle {
	o := &oracle{in: in, byGID: make(map[event.GlobalID]int, len(in.history))}
	for i, h := range in.history {
		o.byGID[h.gid] = i
	}
	return o
}

// note counts err if it is a privacy violation and returns it unchanged.
func (o *oracle) note(err error) error {
	if errors.Is(err, errPrivacy) {
		o.violations.Add(1)
	}
	return err
}

// checkDetail verifies a released detail against the stored one and the
// governing policy: exactly the policy's fields, each with the stored
// value.
func (o *oracle) checkDetail(actor event.Actor, purpose event.Purpose, stored, got *event.Detail) error {
	if got == nil {
		return errors.New("no detail returned")
	}
	allowed := o.in.policies[policyKey{actor, stored.Class, purpose}]
	if allowed == nil {
		return o.note(privacyf("%s got %s details for %s without a governing policy", actor, stored.Class, purpose))
	}
	for f, v := range got.Fields {
		if v == "" {
			continue // §5.2: unauthorised fields are left empty
		}
		if !allowed[f] {
			return o.note(privacyf("%s got field %q of %s outside the governing policy", actor, f, stored.Class))
		}
		if v != stored.Fields[f] {
			return o.note(privacyf("field %q of %s: got %q, stored %q", f, stored.SourceID, v, stored.Fields[f]))
		}
	}
	for f := range allowed {
		if want := stored.Fields[f]; want != "" && got.Fields[f] != want {
			return fmt.Errorf("field %q of %s missing from the release", f, stored.SourceID)
		}
	}
	return nil
}

// checkDenied verifies the answer to a request that must be denied.
func (o *oracle) checkDenied(got *event.Detail, err error) error {
	if got != nil {
		return o.note(privacyf("a must-deny request was answered with %d fields", len(got.Fields)))
	}
	if errors.Is(err, enforcer.ErrDenied) || errors.Is(err, core.ErrConsentDeny) {
		return nil
	}
	return fmt.Errorf("must-deny request failed otherwise: %w", err)
}

// hub receives subscriber callbacks and accounts for them per event and
// per subscription: every published event must reach every subscription
// exactly once.
type hub struct {
	srv  *http.Server
	base string
	subs int

	mu     sync.Mutex
	events map[event.GlobalID]*delivery
	totals []int // callbacks received per subscription
	dups   int   // callbacks for an event a subscription already had
}

type delivery struct {
	seen  []bool
	count int
	note  *event.Notification
	first chan struct{} // closed by the first callback
	all   chan struct{} // closed when every subscription has delivered
}

// newHub starts the callback endpoint for subs subscriptions.
func newHub(subs int) (*hub, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hub{subs: subs, base: "http://" + ln.Addr().String(),
		events: map[event.GlobalID]*delivery{}, totals: make([]int, subs)}
	mux := http.NewServeMux()
	for i := 0; i < subs; i++ {
		i := i
		mux.Handle("/cb/"+strconv.Itoa(i), transport.NewNotificationReceiver(func(n *event.Notification) { h.receive(i, n) }))
	}
	h.srv = &http.Server{Handler: mux}
	go h.srv.Serve(ln)
	return h, nil
}

func (h *hub) callbackURL(sub int) string { return h.base + "/cb/" + strconv.Itoa(sub) }

func (h *hub) close() { h.srv.Close() }

// entry returns the event's delivery record, creating it: a callback may
// arrive before the publish ack that tells the client the id.
func (h *hub) entry(gid event.GlobalID) *delivery {
	d := h.events[gid]
	if d == nil {
		d = &delivery{seen: make([]bool, h.subs), first: make(chan struct{}), all: make(chan struct{})}
		h.events[gid] = d
	}
	return d
}

func (h *hub) receive(sub int, n *event.Notification) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.totals[sub]++
	d := h.entry(n.ID)
	if d.seen[sub] {
		h.dups++
		return
	}
	d.seen[sub] = true
	d.count++
	if d.count == 1 {
		d.note = n
		close(d.first)
	}
	if d.count == h.subs {
		close(d.all)
	}
}

// await returns the event's delivery record for waiting on.
func (h *hub) await(gid event.GlobalID) *delivery {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.entry(gid)
}

// settle forgets a completed event, so the book stays small and whatever
// remains at the end is unaccounted for.
func (h *hub) settle(gid event.GlobalID) {
	h.mu.Lock()
	delete(h.events, gid)
	h.mu.Unlock()
}

// audit reports callback accounting errors after the run: published is
// the number of events each subscription should have received.
func (h *hub) audit(published int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var problems []string
	if h.dups > 0 {
		problems = append(problems, fmt.Sprintf("%d duplicate callbacks", h.dups))
	}
	for i, got := range h.totals {
		if got != published {
			problems = append(problems, fmt.Sprintf("subscription %d received %d callbacks for %d publishes", i, got, published))
		}
	}
	if len(h.events) > 0 {
		problems = append(problems, fmt.Sprintf("%d events with stray or missing callbacks", len(h.events)))
	}
	if problems != nil {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

func wait(ctx context.Context, ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%s: %w", what, ctx.Err())
	}
}

// checkCallback verifies a delivered notification against the published
// one: same event, and the producer-local source id must not travel.
func checkCallback(o *oracle, sent, got *event.Notification, gid event.GlobalID) error {
	switch {
	case got == nil:
		return errors.New("callback without notification")
	case got.SourceID != "":
		return o.note(privacyf("callback for %s carries source id %q", gid, got.SourceID))
	case got.ID != gid || got.PersonID != sent.PersonID || got.Class != sent.Class || !got.OccurredAt.Equal(sent.OccurredAt):
		return fmt.Errorf("callback for %s does not match the published event", gid)
	}
	return nil
}
