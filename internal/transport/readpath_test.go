package transport

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/store"
)

// coalescingRig fronts a real gateway server with a gate that counts
// upstream get-response round-trips and holds them until released.
type coalescingRig struct {
	srv      *httptest.Server
	client   *RemoteGateway
	upstream atomic.Int32
	entered  chan struct{}
	release  chan struct{}
}

func newCoalescingRig(t *testing.T) *coalescingRig {
	t.Helper()
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := event.NewDetail("c.x", "src-1", "hospital").
		Set("alpha", "1").
		Set("beta", "2")
	if err := gw.Persist(d); err != nil {
		t.Fatal(err)
	}
	gs := testGatewayServer(gw)
	r := &coalescingRig{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	r.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/gw/get-response" {
			r.upstream.Add(1)
			r.entered <- struct{}{}
			<-r.release
		}
		gs.ServeHTTP(w, req)
	}))
	t.Cleanup(r.srv.Close)
	r.client = NewRemoteGateway(r.srv.URL, r.srv.Client())
	return r
}

func TestRemoteGatewayCoalescesIdenticalFetches(t *testing.T) {
	r := newCoalescingRig(t)
	const n = 8
	fields := []event.FieldName{"alpha", "beta"}
	results := make([]*event.Detail, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := r.client.GetResponse("src-1", fields)
			if err != nil {
				t.Errorf("fetch %d: %v", i, err)
				return
			}
			results[i] = d
		}(i)
	}
	<-r.entered // leader reached the wire
	time.Sleep(20 * time.Millisecond)
	close(r.release)
	wg.Wait()

	if got := r.upstream.Load(); got != 1 {
		t.Fatalf("%d identical concurrent fetches made %d round-trips, want 1", n, got)
	}
	seen := map[*event.Detail]bool{}
	for i, d := range results {
		if d == nil {
			t.Fatalf("results[%d] missing", i)
		}
		if v, _ := d.Get("alpha"); v != "1" {
			t.Errorf("results[%d]: alpha = %q", i, v)
		}
		if seen[d] {
			t.Fatal("two callers share one *event.Detail instance")
		}
		seen[d] = true
	}
}

func TestRemoteGatewayNeverCoalescesDistinctFieldsets(t *testing.T) {
	r := newCoalescingRig(t)
	var wg sync.WaitGroup
	for _, f := range []event.FieldName{"alpha", "beta"} {
		wg.Add(1)
		go func(f event.FieldName) {
			defer wg.Done()
			d, err := r.client.GetResponse("src-1", []event.FieldName{f})
			if err != nil {
				t.Errorf("fetch %s: %v", f, err)
				return
			}
			// Each caller must receive exactly its own authorized view.
			if _, ok := d.Get(f); !ok || len(d.Fields) != 1 {
				t.Errorf("fetch %s got fields %v", f, d.Fields)
			}
		}(f)
	}
	<-r.entered
	<-r.entered // both requests must reach the wire before release
	close(r.release)
	wg.Wait()
	if got := r.upstream.Load(); got != 2 {
		t.Fatalf("distinct fieldsets made %d round-trips, want 2 (no cross-talk)", got)
	}
}

func TestFetchKeyIsOrderInsensitiveAndCollisionFree(t *testing.T) {
	a := fetchKey("src-1", []event.FieldName{"alpha", "beta"})
	b := fetchKey("src-1", []event.FieldName{"beta", "alpha"})
	if a != b {
		t.Errorf("field order changed the key: %q vs %q", a, b)
	}
	distinct := []string{
		a,
		fetchKey("src-2", []event.FieldName{"alpha", "beta"}),
		fetchKey("src-1", []event.FieldName{"alpha"}),
		fetchKey("src-1", nil),
	}
	seen := map[string]bool{}
	for _, k := range distinct {
		if seen[k] {
			t.Errorf("key collision on %q", k)
		}
		seen[k] = true
	}
}

func TestWithTokenGetsItsOwnFlightGroup(t *testing.T) {
	g := NewRemoteGateway("http://unused", nil)
	tok := g.WithToken("secret")
	if tok.flights == g.flights {
		t.Error("WithToken shares the coalescing group across identities")
	}
	if len(tok.auth) != 1 || tok.auth[0] != "Bearer secret" || g.auth != nil {
		t.Errorf("token isolation broken: %q / %q", tok.auth, g.auth)
	}
}
