package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/consent"
)

func TestConsentOptOutDeniesNextRequest(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "src-1", "PRS-1")
	w.doctorPolicy(t)

	// Warm every read-path cache with a permitted request.
	if _, err := w.c.RequestDetails(w.request(gid)); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	if _, err := w.c.RecordConsent(consent.Directive{PersonID: "PRS-1", Allow: false}); err != nil {
		t.Fatal(err)
	}
	// The VERY NEXT request must be denied — no cache may keep a permit
	// alive across the data subject's opt-out.
	if _, err := w.c.RequestDetails(w.request(gid)); !errors.Is(err, ErrConsentDeny) {
		t.Fatalf("post-opt-out err = %v, want ErrConsentDeny", err)
	}
	// Opting back in restores access on the very next request.
	if _, err := w.c.RecordConsent(consent.Directive{PersonID: "PRS-1", Allow: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.c.RequestDetails(w.request(gid)); err != nil {
		t.Fatalf("post-opt-in err = %v, want permit", err)
	}
}

func TestCacheEventsCounterCoversReadPath(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "src-1", "PRS-1")
	w.doctorPolicy(t)

	for i := 0; i < 3; i++ {
		if _, err := w.c.RequestDetails(w.request(gid)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for _, cache := range []string{"index.notification", "gateway.detail"} {
		hits := w.c.met.cacheEvents.Value(cache, "hit")
		misses := w.c.met.cacheEvents.Value(cache, "miss")
		if misses == 0 {
			t.Errorf("%s: no misses recorded (cache not wired?)", cache)
		}
		if hits < 2 {
			t.Errorf("%s: hits = %d, want >=2 for 3 identical requests", cache, hits)
		}
	}
}

// TestNoStalePermitUnderConsentChurn storms RequestDetails while the
// data subject flips consent, proving no cache layer can keep a permit
// alive into a window where the subject had provably opted out. Same seq
// protocol as the enforcer-level policy-churn test: odd = consent may be
// granted from now on, even = the opt-out directive is durably recorded
// and no re-grant has started.
func TestNoStalePermitUnderConsentChurn(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "src-1", "PRS-1")
	w.doctorPolicy(t)

	var seq atomic.Uint64
	// Start in the provably-denied state that matches seq 0 (even).
	if _, err := w.c.RecordConsent(consent.Directive{PersonID: "PRS-1", Allow: false}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var cycles atomic.Int64
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
			seq.Add(1) // odd: consent may be granted from now on
			if _, err := w.c.RecordConsent(consent.Directive{PersonID: "PRS-1", Allow: true}); err != nil {
				t.Error(err)
				return
			}
			if _, err := w.c.RecordConsent(consent.Directive{PersonID: "PRS-1", Allow: false}); err != nil {
				t.Error(err)
				return
			}
			seq.Add(1) // even: opt-out recorded, no re-grant started
			cycles.Add(1)
		}
	}()

	const workers = 4
	const perWorker = 2000
	var permits, denies atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				s1 := seq.Load()
				_, err := w.c.RequestDetails(w.request(gid))
				switch {
				case err == nil:
					permits.Add(1)
					if s2 := seq.Load(); s1 == s2 && s1%2 == 0 {
						t.Errorf("stale permit at even seq %d (subject had opted out)", s1)
						return
					}
				case errors.Is(err, ErrConsentDeny):
					denies.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	mutWG.Wait()
	t.Logf("consent churn: %d cycles, %d permits, %d denies", cycles.Load(), permits.Load(), denies.Load())
}
