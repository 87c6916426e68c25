package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/enforcer"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/overload"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Storm knobs: `go test ./...` runs a small, fast storm with fixed
// seeds; `make chaos` stretches it (CHAOS_STORM_SEEDS, CHAOS_STORM_N).
func stormSeeds() []int64 {
	if v := os.Getenv("CHAOS_STORM_SEEDS"); v != "" {
		var out []int64
		for _, f := range strings.Split(v, ",") {
			if n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64); err == nil {
				out = append(out, n)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return []int64{1, 2}
}

func stormProducers() int {
	if v := os.Getenv("CHAOS_STORM_N"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 8
}

// Storm rig limits, deliberately tight so the storm actually overloads:
// a small admission budget and rate, and a small bus queue in front of a
// consumer wedged for the whole test.
const (
	stormQueueCap    = 16
	stormMaxInflight = 4
	stormActorRPS    = 20
)

type stormRig struct {
	ctrl    *core.Controller
	gw      *gateway.Gateway
	gate    *overload.Gate
	hs      *testServer
	reg     *telemetry.Registry
	release chan struct{} // closed to un-wedge the consumer
}

func newStormRig(t *testing.T) *stormRig {
	t.Helper()
	reg := telemetry.NewRegistry()
	ctrl, err := core.New(core.Config{
		MasterKey:      bytes.Repeat([]byte{7}, crypto.KeySize),
		DefaultConsent: true,
		Metrics:        reg,
		Bus:            bus.Options{MaxPending: stormQueueCap},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ctrl.CloseContext(ctx)
	})
	if err := ctrl.RegisterProducer("hospital", "Hospital"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("family-doctor", "Doctors"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.DefinePolicy(&policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "exam-date", "hemoglobin"},
	}); err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New("hospital", store.OpenMemory(), ctrl.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.AttachGateway("hospital", gw); err != nil {
		t.Fatal(err)
	}

	// The wedged consumer: its first delivery never returns, so its
	// bounded queue must absorb the storm and shed what does not fit.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	if _, err := ctrl.Subscribe("family-doctor", schema.ClassBloodTest,
		func(*event.Notification) { <-release }); err != nil {
		t.Fatal(err)
	}

	gate := overload.NewGate(overload.Config{
		MaxInFlight: stormMaxInflight,
		ActorRPS:    stormActorRPS,
		Metrics:     reg,
	})
	hs := newTestServer(t, NewServer(ctrl).SetAdmission(gate))
	t.Cleanup(hs.Close)
	return &stormRig{ctrl: ctrl, gw: gw, gate: gate, hs: hs, reg: reg, release: release}
}

// metricSum sums every sample of a metric across its label variants in
// a Prometheus text exposition.
func metricSum(body, name string) (float64, bool) {
	var sum float64
	found := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		sum += v
		found = true
	}
	return sum, found
}

func (r *stormRig) scrapeMetrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(r.hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

type stormOutcome struct {
	gid     event.GlobalID
	shed    bool
	err     error
	elapsed time.Duration
}

// TestChaosOverloadStorm floods an admission-gated controller from N
// hot producers while one consumer is wedged: accepted publishes index
// exactly once, everything beyond the budget is shed fail-fast with a
// 429 the client maps to ErrOverloaded, the wedged subscription's
// memory stays bounded (the queue cap; shed notifications are dropped), detail
// probes racing the storm are never audited as policy denies, and a
// drain started mid-storm finishes inside its deadline even though the
// wedged handler never returns.
func TestChaosOverloadStorm(t *testing.T) {
	producers := stormProducers()
	const perProducer = 30
	for _, seed := range stormSeeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newStormRig(t)
			// Latency jitter on the client hop diversifies interleavings per
			// seed without making any request fail outright.
			faults := newChaosTransport(resilience.FaultConfig{
				Seed:    seed,
				Latency: 0.3, MaxLatency: 3 * time.Millisecond,
			})
			client := NewClient(r.hs.URL, &http.Client{Transport: faults, Timeout: 10 * time.Second})

			// Details for every source the storm may publish, persisted up
			// front so probe failures can only be overload, never not-found.
			const person = "PRS-STORM"
			for p := 0; p < producers; p++ {
				for i := 0; i < perProducer; i++ {
					d := event.NewDetail(schema.ClassBloodTest,
						stormSrc(p, i), "hospital").
						Set("patient-id", person).
						Set("exam-date", "2010-05-30").
						Set("hemoglobin", "14.2")
					if err := r.gw.Persist(d); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Wave 1: the storm proper.
			var mu sync.Mutex
			var outcomes []stormOutcome
			var probeDeny error
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						start := time.Now()
						gid, err := client.Publish(context.Background(), &event.Notification{
							SourceID: stormSrc(p, i), Class: schema.ClassBloodTest,
							PersonID: person, Summary: "blood test", Producer: "hospital",
							OccurredAt: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC).
								Add(time.Duration(p*perProducer+i) * time.Second),
						})
						o := stormOutcome{gid: gid, err: err, elapsed: time.Since(start)}
						if err != nil && errors.Is(err, ErrOverloaded) {
							o.shed = true
						}
						mu.Lock()
						outcomes = append(outcomes, o)
						mu.Unlock()
					}
				}(p)
			}
			// Detail probes race the storm; under overload they may shed,
			// but a permitted request must never come back a policy deny.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					mu.Lock()
					var gid event.GlobalID
					for _, o := range outcomes {
						if o.err == nil {
							gid = o.gid
							break
						}
					}
					mu.Unlock()
					if gid == "" {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					_, err := client.RequestDetails(context.Background(), &event.DetailRequest{
						Requester: "family-doctor", Class: schema.ClassBloodTest,
						EventID: gid, Purpose: event.PurposeHealthcareTreatment,
					})
					if err != nil && errors.Is(err, enforcer.ErrDenied) {
						mu.Lock()
						probeDeny = err
						mu.Unlock()
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
			wg.Wait()
			if probeDeny != nil {
				t.Fatalf("overload surfaced as a policy deny on the detail path: %v", probeDeny)
			}

			// Classify wave-1 outcomes. Nothing may fail for any reason other
			// than an explicit shed: latency jitter is the only injected fault.
			var accepted []event.GlobalID
			sheds := 0
			var shedLat, allLat []time.Duration
			for _, o := range outcomes {
				allLat = append(allLat, o.elapsed)
				switch {
				case o.err == nil:
					accepted = append(accepted, o.gid)
				case o.shed:
					sheds++
					shedLat = append(shedLat, o.elapsed)
				default:
					t.Fatalf("publish failed with a non-shed error: %v", o.err)
				}
			}
			t.Logf("storm: %d accepted, %d shed of %d publishes", len(accepted), sheds, len(outcomes))
			if len(accepted) == 0 {
				t.Fatal("storm admitted nothing; the gate is over-shedding")
			}
			if sheds == 0 {
				t.Fatal("storm shed nothing; the gate is not protecting the budget")
			}
			// Sheds are fail-fast: a 429 must not have queued behind the storm.
			if p := pctl(shedLat, 99); p > time.Second {
				t.Fatalf("shed p99 = %v; fail-fast sheds must not queue", p)
			}
			if p := pctl(allLat, 99); p > 5*time.Second {
				t.Fatalf("publish p99 = %v under storm; latency is unbounded", p)
			}

			// Exactly once at the index: every accepted publish and nothing
			// else (a shed request must not have done the work anyway).
			notes, err := r.ctrl.InquireOwn(person, index.Inquiry{Limit: 10 * producers * perProducer})
			if err != nil {
				t.Fatal(err)
			}
			byID := map[event.GlobalID]int{}
			for _, n := range notes {
				byID[n.ID]++
			}
			if len(notes) != len(accepted) || len(byID) != len(accepted) {
				t.Fatalf("indexed %d notifications over %d ids, want exactly the %d accepted",
					len(notes), len(byID), len(accepted))
			}
			for _, gid := range accepted {
				if byID[gid] != 1 {
					t.Fatalf("accepted publish %s indexed %d times", gid, byID[gid])
				}
			}

			// The wedged consumer's memory stayed bounded, and the overflow
			// machinery is observable on /metrics.
			body := r.scrapeMetrics(t)
			if hwm, ok := metricSum(body, "css_bus_queue_depth_hwm"); !ok || hwm > stormQueueCap {
				t.Fatalf("css_bus_queue_depth_hwm = %v (found=%v), want ≤ %d", hwm, ok, stormQueueCap)
			}
			if v, ok := metricSum(body, "css_bus_overflow_total"); !ok || v < 1 {
				t.Fatalf("css_bus_overflow_total = %v (found=%v), want ≥ 1", v, ok)
			}
			// A shed notification is dropped, not parked: there is no
			// dead-letter queue to grow or to export.
			if _, ok := metricSum(body, "css_bus_dlq_evicted_total"); ok {
				t.Fatal("css_bus_dlq_evicted_total is exported; the bus keeps no dead letters")
			}
			if v, ok := metricSum(body, "css_overload_shed_total"); !ok || v < 1 {
				t.Fatalf("css_overload_shed_total = %v (found=%v), want ≥ 1", v, ok)
			}
			if v, ok := metricSum(body, "css_overload_admitted_total"); !ok || v < 1 {
				t.Fatalf("css_overload_admitted_total = %v (found=%v), want ≥ 1", v, ok)
			}

			// No deny was audited for anything in this storm — overload and
			// unavailability are never policy outcomes.
			denies, err := r.ctrl.Audit().Search(audit.Query{Kind: audit.KindDetailRequest, Outcome: "deny"})
			if err != nil {
				t.Fatal(err)
			}
			if len(denies) != 0 {
				t.Fatalf("audit logged %d denies under overload; first: %+v", len(denies), denies[0])
			}

			// Wave 2: drain mid-storm. Producers keep hammering while the
			// rig executes the SIGTERM sequence; it must complete inside its
			// deadline even though the wedged handler never returns.
			stop := make(chan struct{})
			var wg2 sync.WaitGroup
			for p := 0; p < 4; p++ {
				wg2.Add(1)
				go func(p int) {
					defer wg2.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						client.Publish(context.Background(), &event.Notification{
							SourceID: event.SourceID(fmt.Sprintf("drain-%d-%04d", p, i)),
							Class:    schema.ClassBloodTest, PersonID: person,
							Summary: "blood test", Producer: "hospital",
							OccurredAt: time.Date(2010, 6, 1, 9, 0, 0, 0, time.UTC),
						})
					}
				}(p)
			}
			time.Sleep(50 * time.Millisecond)
			drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			drainStart := time.Now()
			drainErr := overload.Drain(drainCtx, r.gate,
				overload.Step{Name: "http-shutdown", Run: r.hs.srv.Shutdown},
				overload.Step{Name: "bus-flush", Run: r.ctrl.FlushContext},
				overload.Step{Name: "store-close", Run: r.ctrl.CloseContext},
			)
			cancel()
			close(stop)
			elapsed := time.Since(drainStart)
			if elapsed > 8*time.Second {
				t.Fatalf("drain took %v with a 2s budget; a wedged consumer must not block shutdown", elapsed)
			}
			// The wedged subscription cannot flush, so the bus-flush step is
			// expected to report its deadline; what matters is that the drain
			// sequence still ran to completion and the gate stopped admitting.
			if !r.gate.Draining() {
				t.Fatal("gate not draining after Drain")
			}
			t.Logf("drain finished in %v (err=%v)", elapsed, drainErr)
			done := make(chan struct{})
			go func() { wg2.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(15 * time.Second):
				t.Fatal("storm producers still blocked after drain; requests are hanging")
			}
			if _, d := r.gate.Admit("publish", overload.Critical, "late"); d.Admitted {
				t.Fatal("gate admitted a request after drain began")
			}
		})
	}
}

func stormSrc(p, i int) event.SourceID {
	return event.SourceID(fmt.Sprintf("storm-%02d-%02d", p, i))
}

// pctl returns the pth percentile of durations (nearest-rank).
func pctl(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}
