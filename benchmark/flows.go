package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/event"
	"repro/internal/index"
)

// flow returns the workload's flow function over in.flows[offset:].
func (r *rig) flow(offset int) flowFunc {
	run := r.publishFlow
	switch {
	case r.s.read:
		run = r.readFlow
	case r.s.details:
		run = r.twoPhaseFlow
	}
	return func(ctx context.Context, client, i int) (time.Duration, error) {
		return run(ctx, client, &r.in.flows[offset+i])
	}
}

func (r *rig) publish(ctx context.Context, client int, n *event.Notification) (event.GlobalID, error) {
	var gid event.GlobalID
	var err error
	if r.s.fleet {
		gid, err = r.sharded[client].Publish(ctx, n)
	} else {
		gid, err = r.ctl[client].Publish(ctx, n)
	}
	if err == nil {
		r.acked.Add(1)
	}
	return gid, err
}

// publishFlow: publish, then every subscription's callback in hand. The
// request is the publish call.
func (r *rig) publishFlow(ctx context.Context, client int, f *flowInput) (time.Duration, error) {
	t := time.Now()
	gid, err := r.publish(ctx, client, f.n)
	request := time.Since(t)
	if err != nil {
		return 0, fmt.Errorf("publish: %w", err)
	}
	d := r.hub.await(gid)
	if err := wait(ctx, d.all, "callbacks for "+string(gid)); err != nil {
		return 0, err
	}
	r.hub.settle(gid)
	return request, checkCallback(r.o, f.n, d.note, gid)
}

// twoPhaseFlow is the paper's whole cycle: the source system persists the
// detail at its gateway and publishes the notification; the family
// doctor's callback arrives; the doctor requests the details and gets the
// policy's fields. The request is the detail request.
func (r *rig) twoPhaseFlow(ctx context.Context, client int, f *flowInput) (time.Duration, error) {
	if err := r.gw[client].Persist(ctx, f.d); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	gid, err := r.publish(ctx, client, f.n)
	if err != nil {
		return 0, fmt.Errorf("publish: %w", err)
	}
	d := r.hub.await(gid)
	if err := wait(ctx, d.first, "callback for "+string(gid)); err != nil {
		return 0, err
	}
	if err := checkCallback(r.o, f.n, d.note, gid); err != nil {
		return 0, err
	}
	t := time.Now()
	got, err := r.ctl[client].RequestDetails(ctx, &event.DetailRequest{Requester: f.actor, Class: f.n.Class,
		EventID: gid, Purpose: f.purpose, Trace: d.note.Trace})
	request := time.Since(t)
	if err != nil {
		return 0, fmt.Errorf("request details: %w", err)
	}
	r.detailReqs.Add(1)
	if err := r.o.checkDetail(f.actor, f.purpose, f.d, got); err != nil {
		return 0, err
	}
	if err := wait(ctx, d.all, "remaining callbacks for "+string(gid)); err != nil {
		return 0, err
	}
	r.hub.settle(gid)
	return request, nil
}

// readFlow: the family doctor inquires the index about a person around a
// date, picks one of the listed events and requests its details — as
// itself for treatment (permit), or as an actor / for a purpose without a
// policy, or about a person who opted out (both must be denied). The
// request is the detail request.
func (r *rig) readFlow(ctx context.Context, client int, f *flowInput) (time.Duration, error) {
	target := &r.in.history[f.target]
	notes, err := r.ctl[client].InquireIndex(ctx, "family-doctor", index.Inquiry{PersonID: target.n.PersonID,
		From: target.n.OccurredAt.Add(-readWindow), To: target.n.OccurredAt.Add(readWindow)})
	if err != nil {
		return 0, fmt.Errorf("inquire: %w", err)
	}
	r.inquiries.Add(1)
	picked := target
	if f.kind == flowDenyConsent {
		if len(notes) > 0 {
			return 0, r.o.note(privacyf("inquiry listed %d events of a person who opted out", len(notes)))
		}
	} else {
		if len(notes) == 0 {
			return 0, errors.New("inquiry listed nothing for a person with events")
		}
		for _, n := range notes {
			i, known := r.o.byGID[n.ID]
			if !known || r.in.history[i].n.PersonID != target.n.PersonID || n.PersonID != target.n.PersonID {
				return 0, r.o.note(privacyf("inquiry about %s listed event %s of someone else", target.n.PersonID, n.ID))
			}
		}
		picked = &r.in.history[r.o.byGID[notes[f.pick%len(notes)].ID]]
	}
	t := time.Now()
	got, err := r.ctl[client].RequestDetails(ctx, &event.DetailRequest{Requester: f.actor, Class: picked.n.Class,
		EventID: picked.gid, Purpose: f.purpose})
	request := time.Since(t)
	if f.kind != flowPermit {
		if cerr := r.o.checkDenied(got, err); cerr != nil {
			return 0, cerr
		}
		r.detailReqs.Add(1)
		return request, nil
	}
	if err != nil {
		return 0, fmt.Errorf("request details: %w", err)
	}
	r.detailReqs.Add(1)
	return request, r.o.checkDetail(f.actor, f.purpose, picked.d, got)
}
