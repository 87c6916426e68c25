package enforcer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/event"
	"repro/internal/idmap"
	"repro/internal/policy"
	"repro/internal/store"
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

// Two identical requests are two fetches: while the first one's fetch
// hangs, its twin fetches on its own and gets the detail, and the first
// consumer's hang-up ends only its own request.
func TestTwinSurvivesOtherCancellation(t *testing.T) {
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

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	hungErr := make(chan error, 1)
	go func() {
		_, _, err := request(ctx)
		hungErr <- err
	}()
	<-src.entered // the first request is inside the producer round-trip

	d, out, err := request(context.Background())
	if err != nil || out.Decision != event.Permit {
		t.Fatalf("twin: err=%v out=%+v, want the detail (it never hung up)", err, out)
	}
	if v, _ := d.Get("allowed"); v != "ok" {
		t.Errorf("twin detail = %+v", d)
	}
	hangUp()
	if err := <-hungErr; !errors.Is(err, context.Canceled) {
		t.Errorf("hung-up request err = %v, want context.Canceled", err)
	}
	if n := src.calls.Load(); n != 2 {
		t.Errorf("gateway fetched %d times, want 2 (one per request)", n)
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
