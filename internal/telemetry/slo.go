package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Objective is one latency SLO: a fraction Goal of observations on a
// histogram child must complete within Target seconds. "Good" is
// computed from the histogram's buckets, so the SLO reads the exact
// series /metrics exposes — no second measurement path.
type Objective struct {
	// Name identifies the objective ("publish", "detail-permit", ...).
	Name string
	// Hist is the histogram family backing the objective.
	Hist *Histogram
	// LabelValues selects the child (empty for unlabeled families).
	LabelValues []string
	// Target is the latency threshold in seconds; observations at or
	// below it are good. It should coincide with a bucket bound —
	// otherwise the effective target is the next lower bound.
	Target float64
	// Goal is the required good fraction, e.g. 0.99.
	Goal float64
}

// SLOConfig configures the burn-rate engine.
type SLOConfig struct {
	// Now overrides the clock (tests).
	Now func() time.Time
}

// The engine samples every sloStep and reports burn rates over two
// look-back windows, short then long. A window alerts above sloBurnAlert;
// an objective degrades only when both windows alert — the classic
// multi-window guard against paging on a blip.
var sloWindows = [...]time.Duration{5 * time.Minute, 30 * time.Minute}

const (
	sloStep      = 10 * time.Second
	sloBurnAlert = 6.0
)

// sloSample is one point-in-time (total, good) reading of an objective.
type sloSample struct {
	at    time.Time
	total uint64
	good  uint64
}

// SLO computes multi-window burn rates for latency objectives from the
// histogram families already feeding /metrics. Safe for concurrent use.
type SLO struct {
	cfg  SLOConfig
	objs []Objective

	mu      sync.Mutex
	samples [][]sloSample // parallel to objs, oldest first
}

// NewSLO creates the engine. Call Sample (or Run) to feed it.
func NewSLO(cfg SLOConfig, objs ...Objective) *SLO {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &SLO{cfg: cfg, objs: objs, samples: make([][]sloSample, len(objs))}
}

// read takes a (total, good) reading of one objective straight from the
// histogram buckets.
func (o Objective) read() (total, good uint64) {
	counts, total := o.Hist.BucketCounts(o.LabelValues...)
	for i, ub := range o.Hist.Buckets() {
		if ub <= o.Target+1e-12 {
			good += counts[i]
		}
	}
	return total, good
}

// Sample records one reading per objective and prunes samples older
// than the longest window.
func (s *SLO) Sample() {
	now := s.cfg.Now()
	horizon := now.Add(-sloWindows[len(sloWindows)-1] - sloStep)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, o := range s.objs {
		total, good := o.read()
		ring := append(s.samples[i], sloSample{at: now, total: total, good: good})
		drop := 0
		for drop < len(ring)-1 && ring[drop].at.Before(horizon) {
			drop++
		}
		s.samples[i] = ring[drop:]
	}
}

// Run samples every sloStep until ctx is done.
func (s *SLO) Run(ctx context.Context) {
	t := time.NewTicker(sloStep)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// WindowReport is the burn rate over one look-back window.
type WindowReport struct {
	Window time.Duration `json:"window_seconds"`
	Total  uint64        `json:"total"`
	Bad    uint64        `json:"bad"`
	// BurnRate is badFraction/(1-goal): 1.0 burns the error budget
	// exactly at the rate it refills; sloBurnAlert (6×) exhausts a
	// 30-day budget in 5 days.
	BurnRate float64 `json:"burn_rate"`
	Alerting bool    `json:"alerting"`
}

// ObjectiveReport is the current state of one objective.
type ObjectiveReport struct {
	Name         string         `json:"name"`
	TargetSecs   float64        `json:"target_seconds"`
	Goal         float64        `json:"goal"`
	Total        uint64         `json:"total"`
	GoodFraction float64        `json:"good_fraction"`
	Windows      []WindowReport `json:"windows"`
	// Degraded means every window is alerting — the multi-window
	// condition that should page.
	Degraded bool `json:"degraded"`
}

// Report computes the current burn rates. It takes a fresh sample
// first, so scrape-only deployments (no Run goroutine) still see
// current data.
func (s *SLO) Report() []ObjectiveReport {
	s.Sample()
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ObjectiveReport, 0, len(s.objs))
	for i, o := range s.objs {
		ring := s.samples[i]
		last := ring[len(ring)-1]
		rep := ObjectiveReport{Name: o.Name, TargetSecs: o.Target, Goal: o.Goal, Total: last.total}
		if last.total > 0 {
			rep.GoodFraction = float64(last.good) / float64(last.total)
		} else {
			rep.GoodFraction = 1
		}
		alertingAll := true
		for _, w := range sloWindows {
			base := ring[0]
			cutoff := now.Add(-w)
			for _, smp := range ring {
				if smp.at.After(cutoff) {
					break
				}
				base = smp
			}
			total := last.total - base.total
			good := last.good - base.good
			wr := WindowReport{Window: w / time.Second, Total: total, Bad: total - good}
			if total > 0 && o.Goal < 1 {
				badFrac := float64(wr.Bad) / float64(total)
				wr.BurnRate = badFrac / (1 - o.Goal)
			}
			wr.Alerting = wr.BurnRate > sloBurnAlert
			if !wr.Alerting {
				alertingAll = false
			}
			rep.Windows = append(rep.Windows, wr)
		}
		rep.Degraded = alertingAll
		out = append(out, rep)
	}
	return out
}

// HealthDetail renders a one-line summary per objective for /healthz,
// e.g. "publish good=100.0% burn[5m0s]=0.0 burn[30m0s]=0.0".
func (s *SLO) HealthDetail() string {
	var b strings.Builder
	for i, r := range s.Report() {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s good=%.1f%%", r.Name, r.GoodFraction*100)
		for _, w := range r.Windows {
			fmt.Fprintf(&b, " burn[%s]=%.1f", time.Duration(w.Window)*time.Second, w.BurnRate)
		}
		if r.Degraded {
			b.WriteString(" DEGRADED")
		}
	}
	if b.Len() == 0 {
		return "no objectives"
	}
	return b.String()
}

// SLOHandler serves the engine's report as JSON on /slo.
func SLOHandler(s *SLO) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Objectives []ObjectiveReport `json:"objectives"`
		}{s.Report()})
	})
}
