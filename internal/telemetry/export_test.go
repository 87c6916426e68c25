package telemetry

import (
	"math"
)

// Value returns the current value of one child (0 if never touched).
func (c *Counter) Value(labelValues ...string) uint64 {
	return c.f.get(labelValues).count.Load()
}

// Value returns the current gauge value.
func (g *Gauge) Value(labelValues ...string) float64 {
	return math.Float64frombits(g.f.get(labelValues).bits.Load())
}

// Exemplars returns the currently held exemplars of one child, keyed by
// bucket upper bound (+Inf for the overflow slot). Buckets that never
// saw a traced observation are absent.
func (h *Histogram) Exemplars(labelValues ...string) map[float64]Exemplar {
	c := h.f.get(labelValues)
	out := make(map[float64]Exemplar)
	c.exMu.Lock()
	defer c.exMu.Unlock()
	for i, e := range c.exemplars {
		if c.seeded[i].Load() {
			ub := math.Inf(1)
			if i < len(h.f.buckets) {
				ub = h.f.buckets[i]
			}
			out[ub] = e
		}
	}
	return out
}

// Count returns the observation count of one child.
func (h *Histogram) Count(labelValues ...string) uint64 {
	return h.f.get(labelValues).count.Load()
}

// Sum returns the observation sum (seconds) of one child.
func (h *Histogram) Sum(labelValues ...string) float64 {
	return float64(h.f.get(labelValues).sumNanos.Load()) / 1e9
}

// Trace reports the span's trace ID ("" on a nil span).
func (s *ActiveSpan) Trace() string {
	if s == nil {
		return ""
	}
	return s.span.Trace
}

// Dropped reports how many spans were lost to write errors.
func (e *Exporter) Dropped() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// ByTrace returns the retained spans of one trace, oldest first.
func (l *SpanLog) ByTrace(trace string) []Span {
	var out []Span
	for _, s := range l.Snapshot() {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}
