package testsupport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ErrInjectedConnection is the transport error synthesized for injected
// connection refusals and blackouts (distinguishable from real network
// failures in test output).
var ErrInjectedConnection = errors.New("testsupport: injected connection failure")

// FaultConfig configures a FaultInjector. Probabilities are evaluated
// independently per request in a fixed order (blackout, connection,
// blackhole, latency, then — on the response side — server error and
// truncation), all drawn from one seeded stream.
type FaultConfig struct {
	// Seed makes the fault stream reproducible. Zero seeds from the
	// clock (and the chaos harness logs the chosen seed).
	Seed int64
	// ConnectFailure is the probability a request fails like a refused
	// connection before reaching the server.
	ConnectFailure float64
	// Blackhole is the probability a request hangs (never answered)
	// until its context is cancelled or MaxHang elapses.
	Blackhole float64
	// MaxHang bounds a blackholed request when the caller's context has
	// no deadline. Zero means 30s.
	MaxHang time.Duration
	// Latency is the probability a request is delayed by a uniform
	// duration in [0, MaxLatency] before being forwarded.
	Latency float64
	// MaxLatency bounds injected delays. Zero means 50ms.
	MaxLatency time.Duration
	// ServerError is the probability a successfully forwarded request's
	// response is replaced by a synthesized 503 carrying a Retry-After.
	ServerError float64
	// TruncateBody is the probability a successful response's body is
	// cut to half its length (exercising decode-failure handling).
	TruncateBody float64
}

// FaultInjector is an http.RoundTripper that injects faults in front of
// a real transport: connection refusals, blackholes, latency, 5xx
// responses, truncated bodies — plus an explicitly scripted blackout
// window during which every request fails at connect (the "controller
// down for N seconds" scenario). Deterministically seeded; safe for
// concurrent use (decisions are drawn from one locked stream).
type FaultInjector struct {
	next http.RoundTripper
	cfg  FaultConfig

	mu            sync.Mutex // guards rng, counts, blackoutUntil, partitioned
	rng           *rand.Rand
	counts        map[string]uint64
	blackoutUntil time.Time
	// partitioned maps a host (as it appears in request URLs) to the
	// instant its scripted partition lifts — the asymmetric variant of
	// a blackout: only requests TOWARD these hosts fail, traffic to
	// every other host flows untouched.
	partitioned map[string]time.Time
}

// NewFaultInjector wraps next (nil means http.DefaultTransport).
func NewFaultInjector(next http.RoundTripper, cfg FaultConfig) *FaultInjector {
	if next == nil {
		next = http.DefaultTransport
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	if cfg.MaxHang <= 0 {
		cfg.MaxHang = 30 * time.Second
	}
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = 50 * time.Millisecond
	}
	return &FaultInjector{
		next:   next,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		counts: make(map[string]uint64),
	}
}

// Seed returns the seed the injector runs with (for failure logs).
func (f *FaultInjector) Seed() int64 { return f.cfg.Seed }

// BlackoutFor makes every request fail at connect for the duration — a
// scripted total outage of the far side, independent of the
// probabilistic faults.
func (f *FaultInjector) BlackoutFor(d time.Duration) {
	f.mu.Lock()
	f.blackoutUntil = time.Now().Add(d)
	f.mu.Unlock()
}

// blackedOut reports whether a scripted blackout is in effect.
func (f *FaultInjector) blackedOut() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Now().Before(f.blackoutUntil)
}

// PartitionHosts cuts the network toward the named hosts (request URL
// host, e.g. "127.0.0.1:9001") for the duration: requests addressed to
// them fail at connect while every other destination keeps working —
// an asymmetric partition, as opposed to BlackoutFor's total outage.
// Calling again extends or adds hosts; HealPartition lifts them early.
func (f *FaultInjector) PartitionHosts(d time.Duration, hosts ...string) {
	until := time.Now().Add(d)
	f.mu.Lock()
	if f.partitioned == nil {
		f.partitioned = make(map[string]time.Time, len(hosts))
	}
	for _, h := range hosts {
		f.partitioned[h] = until
	}
	f.mu.Unlock()
}

// HealPartition lifts every scripted partition immediately.
func (f *FaultInjector) HealPartition() {
	f.mu.Lock()
	f.partitioned = nil
	f.mu.Unlock()
}

// partitionedFrom reports whether host is currently unreachable.
func (f *FaultInjector) partitionedFrom(host string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	until, ok := f.partitioned[host]
	return ok && time.Now().Before(until)
}

// roll draws one uniform [0,1) decision from the seeded stream.
func (f *FaultInjector) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// span draws a uniform duration in [0, max].
func (f *FaultInjector) span(max time.Duration) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Duration(f.rng.Int63n(int64(max) + 1))
}

// note counts one injected fault of the kind.
func (f *FaultInjector) note(kind string) {
	f.mu.Lock()
	f.counts[kind]++
	f.mu.Unlock()
}

// Injected snapshots the per-kind injected-fault counts.
func (f *FaultInjector) Injected() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]uint64, len(f.counts))
	for k, v := range f.counts {
		out[k] = v
	}
	return out
}

// RoundTrip implements http.RoundTripper.
func (f *FaultInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.blackedOut() {
		f.note("blackout")
		return nil, fmt.Errorf("%w: %s %s (blackout)", ErrInjectedConnection, req.Method, req.URL.Path)
	}
	if f.partitionedFrom(req.URL.Host) {
		f.note("partition")
		return nil, fmt.Errorf("%w: %s %s (partitioned from %s)", ErrInjectedConnection, req.Method, req.URL.Path, req.URL.Host)
	}
	if p := f.cfg.ConnectFailure; p > 0 && f.roll() < p {
		f.note("connect")
		return nil, fmt.Errorf("%w: %s %s", ErrInjectedConnection, req.Method, req.URL.Path)
	}
	if p := f.cfg.Blackhole; p > 0 && f.roll() < p {
		f.note("blackhole")
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(f.cfg.MaxHang):
			return nil, fmt.Errorf("%w: %s %s (blackhole)", ErrInjectedConnection, req.Method, req.URL.Path)
		}
	}
	if p := f.cfg.Latency; p > 0 && f.roll() < p {
		f.note("latency")
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(f.span(f.cfg.MaxLatency)):
		}
	}
	resp, err := f.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if p := f.cfg.ServerError; p > 0 && f.roll() < p {
		f.note("5xx")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		body := "injected 503\n"
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      resp.Proto, ProtoMajor: resp.ProtoMajor, ProtoMinor: resp.ProtoMinor,
			Header: http.Header{
				"Content-Type": []string{"text/plain; charset=utf-8"},
				"Retry-After":  []string{"0"},
			},
			Body:          io.NopCloser(bytes.NewBufferString(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	if p := f.cfg.TruncateBody; p > 0 && resp.StatusCode < 300 && f.roll() < p {
		f.note("truncate")
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		cut := data[:len(data)/2]
		resp.Body = io.NopCloser(bytes.NewReader(cut))
		resp.ContentLength = int64(len(cut))
		resp.Header.Set("Content-Length", strconv.Itoa(len(cut)))
	}
	return resp, nil
}
