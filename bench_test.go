// Repository-level benchmarks for the experiments of EXPERIMENTS.md
// whose claim is not a timing (css-bench prints their tables): what a
// commit costs on the publish, detail and fleet paths is measured by
// `bash benchmark/run.sh` alone, and these stay as runnable rigs that
// `make bench-smoke` executes once each.
//
//	go test -run '^$' -bench . -benchmem .
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/policy"
	"repro/internal/process"
	"repro/internal/reporting"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xacml"
)

func benchController(b *testing.B) (*core.Controller, *workload.Platform) {
	b.Helper()
	c, err := core.New(core.Config{DefaultConsent: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.Provision(c)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.StandardPolicies(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c, p
}

// BenchmarkE4_TwoPhaseEmit measures the producer-side cost of the
// two-phase protocol: persist detail + publish notification.
func BenchmarkE4_TwoPhaseEmit(b *testing.B) {
	_, p := benchController(b)
	gen := workload.NewGenerator(workload.Config{Seed: 2, People: 1000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, d := gen.Next()
		if _, err := p.Produce(n, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_WarehouseLoad is the one-phase baseline of the same emit.
func BenchmarkE4_WarehouseLoad(b *testing.B) {
	wh := baseline.NewWarehouse()
	gen := workload.NewGenerator(workload.Config{Seed: 2, People: 1000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d := gen.Next()
		wh.Load(d)
	}
}

// BenchmarkE6_AuditVerify measures full-chain verification of a 10k log.
func BenchmarkE6_AuditVerify(b *testing.B) {
	l, _ := audit.Open(store.OpenMemory())
	for i := 0; i < 10000; i++ {
		l.Append(audit.Record{Kind: audit.KindPublish, Actor: "p", Outcome: "ok"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_FilterEvent measures the Algorithm 2 field filtering that
// implements minimal usage, on a 9-field home-care event.
func BenchmarkE7_FilterEvent(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 3, People: 10,
		Classes: []*schema.Schema{schema.HomeCare()}})
	_, d := gen.Next()
	allowed := []event.FieldName{"patient-id", "name", "surname"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := d.Filter(allowed); len(f.Fields) == 0 {
			b.Fatal("empty filter result")
		}
	}
}

// BenchmarkE9_OnboardProducer measures registering one more producer
// (with one class and one policy) on a provisioned platform — the O(1)
// hub onboarding step.
func BenchmarkE9_OnboardProducer(b *testing.B) {
	c, _ := benchController(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := event.ProducerID(fmt.Sprintf("clinic-%09d", i))
		class := event.ClassID(fmt.Sprintf("clinic%09d.visit", i))
		if err := c.RegisterProducer(id, "clinic"); err != nil {
			b.Fatal(err)
		}
		s := schema.MustNew(class, 1, "visit",
			schema.Field{Name: "patient-id", Type: schema.String, Required: true, Sensitivity: schema.Identifying})
		if err := c.DeclareClass(id, s); err != nil {
			b.Fatal(err)
		}
		if _, err := c.DefinePolicy(&policy.Policy{
			Producer: id, Actor: "family-doctor", Class: class,
			Purposes: []event.Purpose{"care"}, Fields: []event.FieldName{"patient-id"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_SubscribeAuthorized measures one authorized subscribe +
// cancel round.
func BenchmarkE11_SubscribeAuthorized(b *testing.B) {
	c, _ := benchController(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := c.Subscribe("family-doctor", schema.ClassHomeCare, func(*event.Notification) {})
		if err != nil {
			b.Fatal(err)
		}
		sub.Cancel()
	}
}

// BenchmarkE11_SubscribeDenied measures one deny-by-default rejection.
func BenchmarkE11_SubscribeDenied(b *testing.B) {
	c, _ := benchController(b)
	if err := c.RegisterConsumer("stranger", "S"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Subscribe("stranger", schema.ClassHomeCare, func(*event.Notification) {}); err == nil {
			b.Fatal("unexpected grant")
		}
	}
}

// BenchmarkE12_Compile measures one Definition-2 → XACML compilation.
func BenchmarkE12_Compile(b *testing.B) {
	p := &policy.Policy{
		ID: "p-1", Producer: "prod", Actor: "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   schema.BloodTest().FieldNames(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xacml.Compile(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_EncodeDecode measures the XACML XML round trip of one
// compiled policy.
func BenchmarkE12_EncodeDecode(b *testing.B) {
	p := &policy.Policy{
		ID: "p-1", Producer: "prod", Actor: "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   schema.BloodTest().FieldNames(),
	}
	x, err := xacml.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := xacml.Encode(x)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xacml.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15_MonitorObserve measures one notification observation by
// the process monitor tracking two pathways.
func BenchmarkE15_MonitorObserve(b *testing.B) {
	m, err := process.NewMonitor(
		&process.Pathway{
			Name:    "post-discharge care",
			Trigger: schema.ClassDischarge,
			Stages: []process.Stage{
				{Name: "home care", Class: schema.ClassHomeCare, Within: 7 * 24 * time.Hour},
				{Name: "nursing", Class: schema.ClassNursingService, Within: 14 * 24 * time.Hour},
			},
		},
		&process.Pathway{
			Name:    "telecare activation",
			Trigger: schema.ClassAutonomyTest,
			Stages:  []process.Stage{{Name: "telecare", Class: schema.ClassTelecare, Within: 30 * 24 * time.Hour}},
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Seed: 15, People: 2000})
	notifications := make([]*event.Notification, 4096)
	for i := range notifications {
		n, _ := gen.Next()
		n.ID = event.GlobalID(fmt.Sprintf("evt-%08d", i))
		notifications[i] = n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(notifications[i%len(notifications)])
	}
}

// BenchmarkE13_GatewayVsCache contrasts one D3-compliant gateway
// retrieval with the ablated controller-side cache lookup.
func BenchmarkE13_GatewayVsCache(b *testing.B) {
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		b.Fatal(err)
	}
	wh := baseline.NewWarehouse()
	wh.Grant("consumer", "c.x")
	for i := 0; i < 1000; i++ {
		d := event.NewDetail("c.x", event.SourceID(fmt.Sprintf("s-%04d", i)), "hospital").
			Set("patient-id", "PRS-1").Set("diagnosis", "sensitive content")
		if err := gw.Persist(d); err != nil {
			b.Fatal(err)
		}
		wh.Load(d)
	}
	fields := []event.FieldName{"patient-id"}
	b.Run("gateway", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gw.GetResponse(event.SourceID(fmt.Sprintf("s-%04d", i%1000)), fields); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("controller-cache(ablation)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wh.Query("consumer", "c.x", event.SourceID(fmt.Sprintf("s-%04d", i%1000))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE16_AggregatorObserve measures one accountability aggregation
// step.
func BenchmarkE16_AggregatorObserve(b *testing.B) {
	agg := reporting.NewAggregator(reporting.Monthly)
	gen := workload.NewGenerator(workload.Config{Seed: 16, People: 1000})
	notifications := make([]*event.Notification, 4096)
	for i := range notifications {
		n, _ := gen.Next()
		notifications[i] = n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Observe(notifications[i%len(notifications)])
	}
}
