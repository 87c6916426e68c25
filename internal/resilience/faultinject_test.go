package resilience_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/testsupport"
)

func newTarget(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, c *http.Client, url string) (*http.Response, string, error) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, "", err
	}
	return resp, string(data), nil
}

func TestFaultInjectorPassesThroughWithoutFaults(t *testing.T) {
	srv := newTarget(t, "hello")
	fi := testsupport.NewFaultInjector(nil, testsupport.FaultConfig{Seed: 7})
	resp, body, err := get(t, &http.Client{Transport: fi}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body != "hello" {
		t.Fatalf("got %d %q, want 200 hello", resp.StatusCode, body)
	}
	if n := len(fi.Injected()); n != 0 {
		t.Fatalf("injected %v faults with zero probabilities", fi.Injected())
	}
}

func TestFaultInjectorSameSeedSameFaultStream(t *testing.T) {
	srv := newTarget(t, "hello")
	run := func(seed int64) []string {
		fi := testsupport.NewFaultInjector(nil, testsupport.FaultConfig{Seed: seed, ConnectFailure: 0.3, ServerError: 0.2})
		c := &http.Client{Transport: fi}
		var outcomes []string
		for i := 0; i < 40; i++ {
			resp, _, err := get(t, c, srv.URL)
			switch {
			case err != nil:
				outcomes = append(outcomes, "connect")
			case resp.StatusCode == http.StatusServiceUnavailable:
				outcomes = append(outcomes, "503")
			default:
				outcomes = append(outcomes, "ok")
			}
		}
		return outcomes
	}
	a, b := run(99), run(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: same seed diverged (%s vs %s)\na=%v\nb=%v", i, a[i], b[i], a, b)
		}
	}
	if strings.Count(strings.Join(a, ","), "connect") == 0 {
		t.Fatalf("seed 99 injected no connection failures in 40 requests at p=0.3: %v", a)
	}
}

func TestFaultInjectorConnectFailureIsTyped(t *testing.T) {
	srv := newTarget(t, "hello")
	fi := testsupport.NewFaultInjector(nil, testsupport.FaultConfig{Seed: 1, ConnectFailure: 1})
	_, _, err := get(t, &http.Client{Transport: fi}, srv.URL)
	if !errors.Is(err, testsupport.ErrInjectedConnection) {
		t.Fatalf("err = %v, want testsupport.ErrInjectedConnection in the chain", err)
	}
	if fi.Injected()["connect"] == 0 {
		t.Fatal("connect fault not counted")
	}
}

func TestFaultInjectorBlackout(t *testing.T) {
	srv := newTarget(t, "hello")
	fi := testsupport.NewFaultInjector(nil, testsupport.FaultConfig{Seed: 1})
	c := &http.Client{Transport: fi}
	if _, _, err := get(t, c, srv.URL); err != nil {
		t.Fatalf("before blackout: %v", err)
	}
	fi.BlackoutFor(200 * time.Millisecond)
	if _, _, err := get(t, c, srv.URL); !errors.Is(err, testsupport.ErrInjectedConnection) {
		t.Fatalf("during blackout: err = %v, want testsupport.ErrInjectedConnection", err)
	}
	time.Sleep(250 * time.Millisecond)
	if _, _, err := get(t, c, srv.URL); err != nil {
		t.Fatalf("after blackout: %v", err)
	}
	if fi.Injected()["blackout"] == 0 {
		t.Fatal("blackout fault not counted")
	}
}

func TestFaultInjectorPartitionIsAsymmetric(t *testing.T) {
	srvA := newTarget(t, "alpha")
	srvB := newTarget(t, "beta")
	fi := testsupport.NewFaultInjector(nil, testsupport.FaultConfig{Seed: 3})
	c := &http.Client{Transport: fi}

	hostA := strings.TrimPrefix(srvA.URL, "http://")
	fi.PartitionHosts(200*time.Millisecond, hostA)

	if _, _, err := get(t, c, srvA.URL); !errors.Is(err, testsupport.ErrInjectedConnection) {
		t.Fatalf("partitioned host reachable: err = %v", err)
	}
	// The other side of the partition stays reachable — that is the
	// asymmetry a blackout cannot express.
	if _, body, err := get(t, c, srvB.URL); err != nil || body != "beta" {
		t.Fatalf("unpartitioned host: %q, %v", body, err)
	}
	if fi.Injected()["partition"] == 0 {
		t.Fatal("partition fault not counted")
	}

	fi.HealPartition()
	if _, body, err := get(t, c, srvA.URL); err != nil || body != "alpha" {
		t.Fatalf("after heal: %q, %v", body, err)
	}

	// Expiry lifts the partition without an explicit heal.
	fi.PartitionHosts(50*time.Millisecond, hostA)
	time.Sleep(80 * time.Millisecond)
	if _, _, err := get(t, c, srvA.URL); err != nil {
		t.Fatalf("after expiry: %v", err)
	}
}

func TestFaultInjectorServerErrorCarriesRetryAfter(t *testing.T) {
	srv := newTarget(t, "hello")
	fi := testsupport.NewFaultInjector(nil, testsupport.FaultConfig{Seed: 1, ServerError: 1})
	resp, _, err := get(t, &http.Client{Transport: fi}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("injected 503 missing Retry-After header")
	}
}

func TestFaultInjectorTruncatesBody(t *testing.T) {
	const body = "0123456789abcdef"
	srv := newTarget(t, body)
	fi := testsupport.NewFaultInjector(nil, testsupport.FaultConfig{Seed: 1, TruncateBody: 1})
	_, got, err := get(t, &http.Client{Transport: fi}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got != body[:len(body)/2] {
		t.Fatalf("body = %q, want the first half of %q", got, body)
	}
	if fi.Injected()["truncate"] == 0 {
		t.Fatal("truncate fault not counted")
	}
}

func TestFaultInjectorBlackholeRespectsContext(t *testing.T) {
	srv := newTarget(t, "hello")
	fi := testsupport.NewFaultInjector(nil, testsupport.FaultConfig{Seed: 1, Blackhole: 1, MaxHang: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = (&http.Client{Transport: fi}).Do(req)
	if err == nil {
		t.Fatal("blackholed request succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("blackhole ignored context cancellation (took %v)", elapsed)
	}
	if fi.Injected()["blackhole"] == 0 {
		t.Fatal("blackhole fault not counted")
	}
}
