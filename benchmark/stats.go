package main

import (
	"math"
	"sort"
	"time"
)

// windows is the number of equal slices the measured phase is cut into.
// Each latency metric is computed per window and the median over windows
// is reported, so one stalled second moves one window, not the result.
const windows = 10

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// relSpread is the distance between the first and third quartile as a
// share of the median — the figure the acceptance rule is stated in.
func relSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

// flowSample is one completed flow: when it started (offset into the
// measured phase), how long the client-visible request took, and how long
// the whole flow took.
type flowSample struct {
	at      time.Duration
	request time.Duration
	flow    time.Duration
}

// echoSample is one round trip to the echo process.
type echoSample struct {
	at  time.Duration
	rtt time.Duration
}

// latencySummary is what one measured phase reduces to.
type latencySummary struct {
	// Normalised: median over windows of (window percentile ÷ window
	// median echo round trip). Unit "rtt".
	requestP50, requestP95, flowP50, flowP95 float64
	// windowSpread is relSpread of the per-window values behind each
	// normalised figure, by metric name, so a noisy host shows.
	windowSpread map[string]float64
	// Raw milliseconds over all samples.
	requestMs, flowMs [3]float64 // p50, p95, p99
	echoP50Ms         float64
	samples           int
	usedWindows       int
}

// minWindowFlows and minWindowEchoes are the fewest samples a window needs
// to contribute; emptier windows (a stalled host, the ragged last slice)
// are skipped instead of contributing a meaningless ratio.
const (
	minWindowFlows  = 20
	minWindowEchoes = 3
)

// summarise cuts the phase into equal windows and reduces the samples.
func summarise(flows []flowSample, echoes []echoSample, phase time.Duration) latencySummary {
	var out latencySummary
	out.samples = len(flows)
	if phase <= 0 || len(flows) == 0 {
		return out
	}
	type bucket struct{ req, flow, echo []float64 }
	bs := make([]bucket, windows)
	idx := func(at time.Duration) int {
		i := int(int64(at) * windows / int64(phase))
		if i < 0 {
			i = 0
		}
		if i >= windows {
			i = windows - 1
		}
		return i
	}
	var allReq, allFlow, allEcho []float64
	for _, f := range flows {
		b := &bs[idx(f.at)]
		r, fl := ms(f.request), ms(f.flow)
		b.req = append(b.req, r)
		b.flow = append(b.flow, fl)
		allReq = append(allReq, r)
		allFlow = append(allFlow, fl)
	}
	for _, e := range echoes {
		b := &bs[idx(e.at)]
		b.echo = append(b.echo, ms(e.rtt))
		allEcho = append(allEcho, ms(e.rtt))
	}
	var per [4][]float64
	for i := range bs {
		b := &bs[i]
		if len(b.req) < minWindowFlows || len(b.echo) < minWindowEchoes {
			continue
		}
		sort.Float64s(b.req)
		sort.Float64s(b.flow)
		echo := median(b.echo)
		if echo <= 0 {
			continue
		}
		per[0] = append(per[0], quantile(b.req, 0.5)/echo)
		per[1] = append(per[1], quantile(b.req, 0.95)/echo)
		per[2] = append(per[2], quantile(b.flow, 0.5)/echo)
		per[3] = append(per[3], quantile(b.flow, 0.95)/echo)
		out.usedWindows++
	}
	out.requestP50, out.requestP95 = median(per[0]), median(per[1])
	out.flowP50, out.flowP95 = median(per[2]), median(per[3])
	out.windowSpread = map[string]float64{"request_p50_rtt": relSpread(per[0]), "request_p95_rtt": relSpread(per[1]),
		"flow_p50_rtt": relSpread(per[2]), "flow_p95_rtt": relSpread(per[3])}
	sort.Float64s(allReq)
	sort.Float64s(allFlow)
	for i, q := range []float64{0.5, 0.95, 0.99} {
		out.requestMs[i] = quantile(allReq, q)
		out.flowMs[i] = quantile(allFlow, q)
	}
	out.echoP50Ms = median(allEcho)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
