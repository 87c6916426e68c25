package telemetry

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serving wraps mux in StartServing and End as the transport's service
// does: the route label is the pattern the request matched. tracer may
// be nil.
func serving(m *HTTPMetrics, tracer *Tracer, mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, pattern := mux.Handler(r)
		ctx, w, s := m.StartServing(tracer, w, r, pattern)
		h.ServeHTTP(w, r.WithContext(ctx))
		s.End()
	})
}

// catchAll routes every path to h.
func catchAll(h http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	return mux
}

func TestMiddlewareRecordsRouteStatusLatency(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "css")
	mux := http.NewServeMux()
	mux.HandleFunc("/ws/publish", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusForbidden) })
	srv := httptest.NewServer(serving(m, NewTracer(reg), mux))
	defer srv.Close()

	if _, err := http.Get(srv.URL + "/ws/publish"); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(srv.URL + "/ws/publish"); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(srv.URL + "/boom"); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(srv.URL + "/nope-1"); err != nil {
		t.Fatal(err)
	}

	if got := m.requests.Value("/ws/publish", "GET", "200"); got != 2 {
		t.Errorf("requests{/ws/publish,GET,200} = %d, want 2", got)
	}
	if got := m.requests.Value("/boom", "GET", "403"); got != 1 {
		t.Errorf("requests{/boom,GET,403} = %d, want 1", got)
	}
	if got := m.requests.Value(UnmatchedRoute, "GET", "404"); got != 1 {
		t.Errorf("requests{%s,GET,404} = %d, want 1", UnmatchedRoute, got)
	}
	out := expose(t, reg)
	for _, want := range []string{
		`css_http_requests_total{route="/boom",method="GET",code="403"} 1`,
		`css_http_requests_total{route="/ws/publish",method="GET",code="200"} 2`,
		`css_stage_seconds_count{stage="http GET /ws/publish"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "/nope") {
		t.Errorf("exposition names a path no route serves:\n%s", out)
	}
}

func TestMiddlewareTraceHeader(t *testing.T) {
	var seen string
	h := serving(NewHTTPMetrics(NewRegistry(), "css"), nil, catchAll(func(w http.ResponseWriter, r *http.Request) {
		seen = TraceFrom(r.Context())
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Without a header the middleware mints one and echoes it back.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(TraceHeader)
	if minted == "" || minted != seen {
		t.Fatalf("minted trace %q, handler saw %q", minted, seen)
	}

	// A caller-supplied header is honored verbatim.
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(TraceHeader, "cafebabe00000001")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "cafebabe00000001" {
		t.Fatalf("echoed trace = %q", got)
	}
	if seen != "cafebabe00000001" {
		t.Fatalf("handler saw %q", seen)
	}
}

// An X-Trace-Id the platform could not pass on verbatim is not
// adopted: the middleware mints a fresh trace instead.
func TestMiddlewareIgnoresInvalidTraceHeader(t *testing.T) {
	var seen string
	h := serving(NewHTTPMetrics(NewRegistry(), "css"), nil, catchAll(func(w http.ResponseWriter, r *http.Request) {
		seen = TraceFrom(r.Context())
	}))
	for _, bad := range []string{strings.Repeat("a", 65), "has space", "caf\xc3\xa9"} {
		req := httptest.NewRequest(http.MethodGet, "/ws/publish", nil)
		req.Header.Set(TraceHeader, bad)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if seen == bad || !ValidTraceID(seen) || rec.Header().Get(TraceHeader) != seen {
			t.Errorf("X-Trace-Id %q: handler saw %q, answer carried %q", bad, seen, rec.Header().Get(TraceHeader))
		}
	}
}

func TestValidTraceID(t *testing.T) {
	for _, ok := range []string{"t1", "replay", NewTraceID(), "feedbeefcafe0001", "seq-000000000001",
		"4bf92f3577b34da6a3ce929d0e0e4736", strings.Repeat("a", 64)} {
		if !ValidTraceID(ok) {
			t.Errorf("%q refused", ok)
		}
	}
	padded, _, ok := ParseTraceparent(FormatTraceparent("feedbeefcafe0001", NewSpanID()))
	if !ok || !ValidTraceID(padded) {
		t.Errorf("parsed W3C trace %q refused", padded)
	}
	for _, bad := range []string{"", strings.Repeat("a", 65), "abc\r\nX-Evil: 1", "a b", "a\tb", "caf\xc3\xa9", "a\x7f"} {
		if ValidTraceID(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("css_publish_total", "P.").Inc()
	rec := httptest.NewRecorder()
	MetricsHandler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "css_publish_total 1") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

func TestHealthzHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	HealthzDetailHandler(func() error { return nil }, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthy: code=%d body=%q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	HealthzDetailHandler(func() error { return errors.New("closed") }, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "closed") {
		t.Fatalf("unhealthy: code=%d body=%q", rec.Code, rec.Body.String())
	}
}

func TestRegisterPprof(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index status = %d", rec.Code)
	}
}
