package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/consent"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/store"
)

func TestConsentOptOutDeniesNextRequest(t *testing.T) {
	w := newWorld(t)
	gid := w.producePublish(t, "src-1", "PRS-1")
	w.doctorPolicy(t)

	// A permitted request first.
	if _, err := w.c.RequestDetails(w.request(gid)); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if _, err := w.c.RecordConsent(consent.Directive{PersonID: "PRS-1", Allow: false}); err != nil {
		t.Fatal(err)
	}
	// The VERY NEXT request must be denied: nothing may keep a permit
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

// TestDisclosureFailsClosedWithoutAudit: once the audit store refuses
// appends, every flow that would disclose something — a permitted detail
// request, an index inquiry, an admitted subscription — returns the
// store's error and discloses nothing. The error is no deny sentinel, so
// the transport answers it as a server error.
func TestDisclosureFailsClosedWithoutAudit(t *testing.T) {
	w := newWorldIn(t, t.TempDir())
	gid := w.producePublish(t, "src-1", "PRS-1")
	w.doctorPolicy(t)
	for _, ns := range w.c.replStores {
		if ns.Name == "audit" {
			if err := ns.Store.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	failedClosed := func(flow string, disclosed bool, err error) {
		t.Helper()
		if err == nil || disclosed {
			t.Errorf("%s: disclosed = %v, err = %v; want nothing and an error", flow, disclosed, err)
		}
		if !errors.Is(err, store.ErrClosed) || errors.Is(err, enforcer.ErrDenied) ||
			errors.Is(err, ErrConsentDeny) || errors.Is(err, ErrSubscriptionDeny) {
			t.Errorf("%s: err = %v, want the audit store's error and no deny", flow, err)
		}
	}
	d, err := w.c.RequestDetails(w.request(gid))
	failedClosed("detail request", d != nil, err)
	ns, err := w.c.InquireIndex("family-doctor", index.Inquiry{PersonID: "PRS-1"})
	failedClosed("index inquiry", ns != nil, err)
	sub, err := w.c.Subscribe("family-doctor", schema.ClassBloodTest, func(*event.Notification) {})
	failedClosed("subscription", sub != nil, err)
}

// TestNoStalePermitUnderConsentChurn storms RequestDetails while the
// data subject flips consent, proving no layer can keep a permit
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
