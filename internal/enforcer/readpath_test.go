package enforcer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/idmap"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func TestRemovePolicyDeniesNextRequest(t *testing.T) {
	f := newFixture(t)
	p := f.addPolicy(t, "patient-id")
	// A permit first.
	if _, out, err := f.enf.GetEventDetails(f.request()); err != nil || out.Decision != event.Permit {
		t.Fatalf("warm-up: err=%v out=%+v", err, out)
	}
	if err := f.enf.RemovePolicy(p.ID); err != nil {
		t.Fatal(err)
	}
	// The VERY NEXT request must be denied — no stale permit window.
	if _, out, err := f.enf.GetEventDetails(f.request()); !errors.Is(err, ErrDenied) || out.Decision != event.Deny {
		t.Fatalf("post-revocation: err=%v out=%+v, want immediate deny", err, out)
	}
}

func TestAddPolicyPermitsNextRequest(t *testing.T) {
	f := newFixture(t)
	// A deny first (no policy yet).
	if _, _, err := f.enf.GetEventDetails(f.request()); !errors.Is(err, ErrDenied) {
		t.Fatal("expected initial deny")
	}
	f.addPolicy(t, "patient-id")
	// The new policy must take effect on the very next request.
	if _, out, err := f.enf.GetEventDetails(f.request()); err != nil || out.Decision != event.Permit {
		t.Fatalf("post-grant: err=%v out=%+v, want immediate permit", err, out)
	}
}

// gatedSource blocks GetResponse until released, counting calls.
type gatedSource struct {
	calls   atomic.Int32
	entered chan struct{} // receives one tick per arrived call
	release chan struct{}
	detail  func(fields []event.FieldName) *event.Detail
}

func (s *gatedSource) GetResponse(src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	s.calls.Add(1)
	s.entered <- struct{}{}
	<-s.release
	return s.detail(fields), nil
}

func TestGatewayFetchCoalescing(t *testing.T) {
	ids := idmap.New(store.OpenMemory())
	enf, err := New(policy.NewRepository(), ids)
	if err != nil {
		t.Fatal(err)
	}
	src := &gatedSource{
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
		detail: func(fields []event.FieldName) *event.Detail {
			return event.NewDetail("c.x", "src-1", "hospital").Set("allowed", "ok")
		},
	}
	enf.AttachGateway("hospital", src)
	gid, _ := ids.Assign("hospital", "src-1", "c.x")
	if _, err := enf.AddPolicy(&policy.Policy{
		Producer: "hospital", Actor: "a", Class: "c.x",
		Purposes: []event.Purpose{"s"}, Fields: []event.FieldName{"allowed"},
	}); err != nil {
		t.Fatal(err)
	}

	const n = 8
	results := make([]*event.Detail, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &event.DetailRequest{Requester: "a", Class: "c.x", EventID: gid, Purpose: "s"}
			d, out, err := enf.GetEventDetails(r)
			if err != nil || out.Decision != event.Permit {
				t.Errorf("request %d: err=%v out=%+v", i, err, out)
				return
			}
			results[i] = d
		}(i)
	}
	// Wait for the leader to reach the gateway, give followers time to
	// pile onto the flight, then release.
	<-src.entered
	time.Sleep(20 * time.Millisecond)
	close(src.release)
	wg.Wait()

	if got := src.calls.Load(); got != 1 {
		t.Fatalf("gateway fetched %d times for %d identical concurrent requests, want 1", got, n)
	}
	// Every consumer must own its detail: mutating one must not be
	// visible through another (flight followers receive clones).
	seen := map[*event.Detail]bool{}
	for i, d := range results {
		if d == nil {
			t.Fatalf("results[%d] missing", i)
		}
		if seen[d] {
			t.Fatal("two consumers share one *event.Detail instance")
		}
		seen[d] = true
	}
}

// hangUpSource is a context-aware detail source whose first fetch hangs
// until its caller gives up; every later fetch answers at once.
type hangUpSource struct {
	calls   atomic.Int32
	entered chan struct{}
}

func (s *hangUpSource) GetResponse(event.SourceID, []event.FieldName) (*event.Detail, error) {
	return nil, errors.New("context-free fetch on a context-aware source")
}

func (s *hangUpSource) GetResponseContext(ctx context.Context, _ string, src event.SourceID, _ []event.FieldName) (*event.Detail, error) {
	if s.calls.Add(1) == 1 {
		close(s.entered)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return event.NewDetail("c.x", src, "hospital").Set("allowed", "ok"), nil
}

// A coalesced follower must not inherit its leader's cancellation: when
// the consumer that started the shared fetch hangs up, a follower whose
// own context is live fetches again and still gets the detail.
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	ids := idmap.New(store.OpenMemory())
	enf, err := New(policy.NewRepository(), ids)
	if err != nil {
		t.Fatal(err)
	}
	src := &hangUpSource{entered: make(chan struct{})}
	enf.AttachGateway("hospital", src)
	gid, _ := ids.Assign("hospital", "src-1", "c.x")
	if _, err := enf.AddPolicy(&policy.Policy{
		Producer: "hospital", Actor: "a", Class: "c.x",
		Purposes: []event.Purpose{"s"}, Fields: []event.FieldName{"allowed"},
	}); err != nil {
		t.Fatal(err)
	}
	request := func(ctx context.Context) (*event.Detail, Outcome, error) {
		return enf.GetEventDetailsContext(ctx, &event.DetailRequest{Requester: "a", Class: "c.x", EventID: gid, Purpose: "s"})
	}

	leaderCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := request(leaderCtx)
		leaderErr <- err
	}()
	<-src.entered // the leader is inside the producer round-trip

	type result struct {
		d   *event.Detail
		out Outcome
		err error
	}
	// The follower's pdp.decide span is its last observable step before it
	// joins the flight; give it a moment to get from there to the wait.
	tracer := telemetry.NewTracer()
	decided := make(chan struct{})
	tracer.SetOnEnd(func(s *telemetry.Span) {
		if s.Stage == "pdp.decide" {
			close(decided)
		}
	})
	followerCtx, _ := tracer.StartSpan(context.Background(), "follower")
	followerDone := make(chan result, 1)
	go func() {
		d, out, err := request(followerCtx)
		followerDone <- result{d, out, err}
	}()
	<-decided
	time.Sleep(20 * time.Millisecond)
	hangUp()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	got := <-followerDone
	if got.err != nil || got.out.Decision != event.Permit {
		t.Fatalf("follower: err=%v out=%+v, want the detail (it never hung up)", got.err, got.out)
	}
	if v, _ := got.d.Get("allowed"); v != "ok" {
		t.Errorf("follower detail = %+v", got.d)
	}
	if n := src.calls.Load(); n != 2 {
		t.Errorf("gateway fetched %d times, want 2 (the leader's, then the follower's own)", n)
	}
}

// TestNoStalePermitUnderPolicyChurn storms GetEventDetails while a
// mutator adds and revokes the authorizing policy, and proves
// deny-by-default holds under churn: a permit observed in a window where
// the policy was provably absent is a stale-permit bug.
//
// The seq protocol makes the detector sound under concurrency: seq is
// bumped to odd BEFORE AddPolicy starts (a policy may exist from here
// on) and to even only AFTER RemovePolicy returned (provably no policy,
// and no add started). A request that begins and ends at the same even
// seq ran entirely inside a no-policy window, so a permit there can only
// come from stale state.
func TestNoStalePermitUnderPolicyChurn(t *testing.T) {
	f := newFixture(t)
	template := &policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    "hospital.blood-test",
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	}

	var seq atomic.Uint64
	stop := make(chan struct{})
	var mutations atomic.Int64
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq.Add(1) // odd: a policy may exist from now on
			p, err := f.enf.AddPolicy(template.Clone())
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.enf.RemovePolicy(p.ID); err != nil {
				t.Error(err)
				return
			}
			seq.Add(1) // even: provably no policy installed
			mutations.Add(1)
		}
	}()

	const workers = 4
	const perWorker = 4000
	var permits, denies atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := f.request()
			for i := 0; i < perWorker; i++ {
				s1 := seq.Load()
				_, out, err := f.enf.GetEventDetails(r)
				switch {
				case err == nil && out.Decision == event.Permit:
					permits.Add(1)
					if s2 := seq.Load(); s1 == s2 && s1%2 == 0 {
						t.Errorf("stale permit: served at even seq %d (no policy installed)", s1)
						return
					}
				case errors.Is(err, ErrDenied):
					denies.Add(1)
				default:
					t.Errorf("unexpected outcome: err=%v out=%+v", err, out)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	mutWG.Wait()
	t.Logf("churn: %d mutation cycles, %d permits, %d denies", mutations.Load(), permits.Load(), denies.Load())
	if mutations.Load() == 0 || permits.Load() == 0 || denies.Load() == 0 {
		t.Log("warning: churn test saw a degenerate interleaving (one outcome never occurred)")
	}
}
