package main

import (
	"fmt"
	"io"
	"log"

	"repro/internal/baseline"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/store"
)

// runE13 ablates design decision D3 (details stay at the producer's
// gateway) against the rejected alternative (a controller-side detail
// cache): both serve the same lookups, and the table counts the
// sensitive bytes the central node holds under each design.
func runE13(w io.Writer, quick bool) {
	n := pick(quick, 500, 5000)
	lookups := pick(quick, 500, 5000)

	// Shared corpus of details.
	mkDetail := func(i int) *event.Detail {
		return event.NewDetail("c.x", event.SourceID(fmt.Sprintf("s-%06d", i)), "hospital").
			Set("patient-id", fmt.Sprintf("PRS-%05d", i)).
			Set("diagnosis", "chronic condition with a long free-text description").
			Set("therapy", "complex therapy plan 0123456789")
	}
	payloadBytes := 0
	for _, v := range mkDetail(0).Fields {
		payloadBytes += len(v)
	}
	fields := []event.FieldName{"patient-id"}

	// D3 as designed: details persisted at the producer's gateway.
	gw, err := gateway.New("hospital", store.OpenMemory(), nil)
	if err != nil {
		log.Fatal(err)
	}
	// The ablated design: a controller-side cache of full details.
	cache := baseline.NewWarehouse()
	cache.Grant("consumer", "c.x")
	var centralBytes uint64
	for i := 0; i < n; i++ {
		if err := gw.Persist(mkDetail(i)); err != nil {
			log.Fatal(err)
		}
		centralBytes += uint64(cache.Load(mkDetail(i)))
	}
	gwServed, cacheServed := 0, 0
	for i := 0; i < lookups; i++ {
		src := event.SourceID(fmt.Sprintf("s-%06d", i%n))
		if _, err := gw.GetResponse(src, fields); err == nil {
			gwServed++
		}
		if _, err := cache.Query("consumer", "c.x", src); err == nil {
			cacheServed++
		}
	}

	tbl := newTable(w, "design", "lookups served", "sensitive bytes at controller", "legal under dup. prohibition")
	tbl.row("D3: producer gateway", fmt.Sprintf("%d/%d", gwServed, lookups), 0, true)
	tbl.row("ablation: controller cache", fmt.Sprintf("%d/%d", cacheServed, lookups), centralBytes, false)
	tbl.flush()
	fmt.Fprintf(w, "(corpus: %d details × %d payload bytes)\n", n, payloadBytes)
	fmt.Fprintln(w, "shape: both designs serve every lookup; the central cache does it by duplicating")
	fmt.Fprintln(w, "every sensitive byte outside the owner's control — prohibited by the")
	fmt.Fprintln(w, "regulations the paper cites — while D3 leaves none at the controller.")
}
