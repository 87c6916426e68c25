package replication

import (
	"math"
	"sync"
	"time"
)

// detector is a phi-accrual-style failure detector (Hayashibara et
// al.): it keeps a sliding window of heartbeat inter-arrival times and
// converts "time since last contact" into a suspicion level
//
//	phi(t) = (t - last) / (mean · ln 10)
//
// — the exponential-arrival form of the accrual detector, where phi = k
// means the silence is about k decades less likely than a normal gap.
// Because the mean adapts to the observed cadence, a slow or jittery
// link raises the bar automatically instead of hair-triggering; a
// configured floor on elapsed silence guards the other direction, where
// a burst of rapid-fire arrivals would otherwise shrink the mean toward
// zero and make any pause look fatal.
type detector struct {
	mu        sync.Mutex
	last      time.Time
	intervals [64]float64 // seconds, ring buffer
	n, idx    int
	sum       float64
	prior     float64 // expected interval before enough samples arrive
}

// defaultBeat is the heartbeat cadence assumed when none is configured.
const defaultBeat = 100 * time.Millisecond

// newDetector builds a detector primed with the expected heartbeat
// interval — the mean used until real arrivals accumulate.
func newDetector(expected time.Duration) *detector {
	if expected <= 0 {
		expected = defaultBeat
	}
	return &detector{prior: expected.Seconds()}
}

// Observe records one contact (heartbeat, data frame, or successful
// probe) at time now.
func (d *detector) Observe(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.last.IsZero() {
		iv := now.Sub(d.last).Seconds()
		if iv >= 0 {
			if d.n == len(d.intervals) {
				d.sum -= d.intervals[d.idx]
			} else {
				d.n++
			}
			d.intervals[d.idx] = iv
			d.sum += iv
			d.idx = (d.idx + 1) % len(d.intervals)
		}
	}
	if now.After(d.last) {
		d.last = now
	}
}

// Phi returns the current suspicion level. Before the first contact it
// reports zero: a primary that never spoke is the probe channel's
// problem, not a crash of something the detector was tracking.
func (d *detector) Phi(now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last.IsZero() {
		return 0
	}
	mean := d.prior
	// Blend the prior until the window has a few real samples, so one
	// freak short interval cannot collapse the mean.
	if d.n >= 4 {
		mean = d.sum / float64(d.n)
	} else if d.n > 0 {
		mean = (d.sum + d.prior*float64(4-d.n)) / 4
	}
	if mean <= 0 {
		mean = d.prior
	}
	elapsed := now.Sub(d.last).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return elapsed / (mean * math.Ln10)
}

// Elapsed returns the silence since the last contact (zero before the
// first contact).
func (d *detector) Elapsed(now time.Time) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last.IsZero() {
		return 0
	}
	return now.Sub(d.last)
}
