package main

import (
	"context"
	"fmt"
	"net/http"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median and
// the last one is measured on. Set-up is a few seconds of mostly CPU-bound
// work, so one sample of it would carry the host's mood.
const setupReps = 3

// result is what one run of one workload produced.
type result struct {
	spec      *spec
	attempted int
	failed    int
	errs      []error
	// correct is false when any output check failed: a failed flow, a
	// callback unaccounted for, a broken or short audit chain, a fork.
	correct    bool
	violations int64 // privacy violations; any makes the command fail
	problems   []string
	values     map[string]float64
	summary    latencySummary
	setups     []setupParts
	// The traced run adds warnings about its own quality and the span
	// file it wrote.
	warnings []string
	spanFile string
	spans    int
}

// snapshot is the outside view of the system at one instant.
type snapshot struct {
	cpu        map[*proc]float64
	harnessCPU float64
	disk       int64            // all files in all SUT data dirs
	wal        map[string]int64 // primaries' and gateway's WALs by file name
	metrics    map[*proc]metricSet
}

var walFiles = map[string]bool{"index.wal": true, "audit.wal": true, "idmap.wal": true, "gateway.wal": true}

func (r *rig) snapshot() (*snapshot, error) {
	s := &snapshot{cpu: map[*proc]float64{}, wal: map[string]int64{}, metrics: map[*proc]metricSet{}}
	var err error
	if s.harnessCPU, err = procCPUMs(selfPID); err != nil {
		return nil, err
	}
	for _, p := range r.sut() {
		if s.cpu[p], err = procCPUMs(p.pid()); err != nil {
			return nil, err
		}
		if s.metrics[p], err = scrapeMetrics(r.admin, p.url); err != nil {
			return nil, err
		}
		total, named, derr := dirBytes(p.data)
		if derr != nil {
			return nil, derr
		}
		s.disk += total
		if p.role != "follower" {
			for name := range walFiles {
				s.wal[name] += named[name]
			}
		}
	}
	return s, nil
}

// runWorkload is one benchmark run: generate, set up (several times),
// measure, tear down, verify.
func runWorkload(ctx context.Context, e *env, s *spec, in *inputs, sz sizes, seconds int, traced bool) (*result, error) {
	echoProc, echo, err := startEcho(ctx, e)
	if err != nil {
		return nil, err
	}
	defer func() {
		echoProc.kill()
		e.forget([]*proc{echoProc})
	}()

	res := &result{spec: s, values: map[string]float64{}}
	reps := setupReps
	if traced || sz.flows > 0 {
		reps = 1 // the traced run and the smoke do not report setup_s
	}
	var r *rig
	for i := 0; i < reps; i++ {
		if r != nil {
			r.destroy()
		}
		if r, err = newRig(ctx, e, s, in, echo, fmt.Sprintf("%s-%d", s.name, i)); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		res.setups = append(res.setups, r.parts)
	}
	defer r.destroy()

	// Leave the harness's own set-up garbage behind before timing.
	runtime.GC()
	debug.FreeOSMemory()

	before, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	stopLag := r.sampleLag()
	dur := time.Duration(seconds) * time.Second
	limit := len(in.flows) - in.warmup
	if sz.flows > 0 {
		dur = 0
	}
	// Memory is read when flow number memFlows starts (flow numbers are
	// handed out in order, so one client sees it), or at the end of a
	// phase too short to get there.
	var mem map[*proc][2]float64
	var memErr error
	flow := r.flow(in.warmup)
	loop := runClosedLoop(ctx, dur, limit, func(ctx context.Context, client, i int) (time.Duration, error) {
		if i == s.memFlows {
			mem, memErr = r.memory()
		}
		return flow(ctx, client, i)
	}, echo)
	lag := stopLag()
	after, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	if mem == nil && memErr == nil {
		if sz.flows == 0 {
			res.warnings = append(res.warnings, fmt.Sprintf(
				"the phase ended before flow %d: peak_rss_mb is read at its end and is not comparable", s.memFlows))
		}
		mem, memErr = r.memory()
	}
	if memErr != nil {
		return nil, memErr
	}

	res.attempted, res.failed, res.errs = loop.attempted, loop.failed, loop.errs
	res.summary = summarise(loop.flows, loop.echoes, loop.phase)
	r.fill(res, loop, before, after, mem, lag)
	r.teardown(ctx, res)
	res.violations = r.o.violations.Load()
	res.judge()
	return res, nil
}

// memory reads VmHWM and VmRSS (MB) of every daemon.
func (r *rig) memory() (map[*proc][2]float64, error) {
	mem := map[*proc][2]float64{}
	for _, p := range r.sut() {
		hwm, rss, err := procMem(p.pid())
		if err != nil {
			return nil, err
		}
		mem[p] = [2]float64{hwm, rss}
	}
	return mem, nil
}

// startEcho launches the reference process and returns the per-client
// round-trip function.
func startEcho(ctx context.Context, e *env) (*proc, echoFunc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, err
	}
	p := &proc{name: "echo", role: "echo", url: "http://" + addr}
	if _, err := e.spawn(p, "echo", "-addr", addr); err != nil {
		return nil, nil, err
	}
	probe := &http.Client{Timeout: time.Second}
	if err := waitHTTP(ctx, probe, p, "/"); err != nil {
		p.kill()
		return nil, nil, err
	}
	conns := make([]*http.Client, clients)
	for i := range conns {
		conns[i] = &http.Client{Timeout: flowTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return p, func(client int) error {
		resp, err := conns[client].Get(p.url + "/")
		if err != nil {
			return err
		}
		return resp.Body.Close()
	}, nil
}

// sampleLag polls the followers' lag while the measured phase runs
// (fleet only). stop ends the polling and returns what was seen.
func (r *rig) sampleLag() (stop func() []float64) {
	if !r.s.fleet {
		return func() []float64 { return nil }
	}
	var seen []float64
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if lag, err := r.replLag(); err == nil {
					seen = append(seen, float64(lag))
				}
			}
		}
	}()
	return func() []float64 {
		close(done)
		<-finished
		return seen
	}
}

// fill derives every metric that is read from outside the processes.
func (r *rig) fill(res *result, loop loopResult, before, after *snapshot, mem map[*proc][2]float64, lag []float64) {
	v := res.values
	sum := res.summary
	ops := float64(len(loop.flows))
	if ops == 0 {
		ops = 1
	}
	v["request_p50_rtt"], v["request_p95_rtt"] = sum.requestP50, sum.requestP95
	v["flow_p50_rtt"], v["flow_p95_rtt"] = sum.flowP50, sum.flowP95
	v["disk_bytes_per_op"] = float64(after.disk-before.disk) / ops

	totals := make([]float64, 0, len(res.setups))
	for _, p := range res.setups {
		totals = append(totals, p.total)
	}
	v["setup_s"] = median(totals)
	// The parts are reported from the set-up whose total is the median.
	mid := res.setups[0]
	for _, p := range res.setups {
		if p.total == v["setup_s"] {
			mid = p
		}
	}
	v["setup.preload_s"], v["setup.replay_s"] = mid.preload, mid.replay
	v["setup.catchup_s"], v["setup.warmup_s"] = mid.catchup, mid.warmup

	v["harness.request_p50_ms"], v["harness.request_p95_ms"], v["harness.request_p99_ms"] = sum.requestMs[0], sum.requestMs[1], sum.requestMs[2]
	v["harness.flow_p50_ms"], v["harness.flow_p95_ms"], v["harness.flow_p99_ms"] = sum.flowMs[0], sum.flowMs[1], sum.flowMs[2]
	v["harness.echo_p50_ms"] = sum.echoP50Ms
	v["harness.flows_per_s"] = float64(len(loop.flows)) / loop.phase.Seconds()
	v["harness.samples"] = float64(sum.samples)
	v["harness.cpu_ms_per_op"] = (after.harnessCPU - before.harnessCPU) / ops

	for _, role := range []string{"controller", "gateway", "follower"} {
		v[role+".cpu_ms_per_op"], v[role+".rss_mb"] = 0, 0
	}
	for _, p := range r.sut() {
		v[p.role+".cpu_ms_per_op"] += (after.cpu[p] - before.cpu[p]) / ops
		v[p.role+".rss_mb"] += mem[p][1]
		v["peak_rss_mb"] += mem[p][0]
	}
	for file, key := range map[string]string{"index.wal": "store.index_wal_bytes_per_op", "audit.wal": "store.audit_wal_bytes_per_op",
		"idmap.wal": "store.idmap_wal_bytes_per_op", "gateway.wal": "store.gateway_wal_bytes_per_op"} {
		v[key] = float64(after.wal[file]-before.wal[file]) / ops
	}

	delta := func(name string, labels ...string) float64 {
		d := 0.0
		for _, p := range r.sut() {
			d += after.metrics[p].sum(name, labels...) - before.metrics[p].sum(name, labels...)
		}
		return d
	}
	v["overload.shed"] = delta("css_overload_shed_total")
	v["bus.deliveries_failed"] = delta("css_deliveries_failed_total")
	v["consent.drops"] = delta("css_consent_drops_total")
	v["resilience.retries"] = delta("css_resilience_retries_total")
	v["cluster.wrong_shard"] = delta("css_cluster_wrong_shard_total")
	v["bus.queue_depth_hwm"] = 0
	for _, p := range r.primaries {
		if hwm := after.metrics[p].sum("css_bus_queue_depth_hwm"); hwm > v["bus.queue_depth_hwm"] {
			v["bus.queue_depth_hwm"] = hwm
		}
	}
	share := func(cache string) float64 {
		hit := delta("css_cache_events_total", `cache="`+cache+`"`, `result="hit"`)
		miss := delta("css_cache_events_total", `cache="`+cache+`"`, `result="miss"`)
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	v["enforcer.decision_cache_hit_share"] = share("pdp.decision")
	v["gateway.detail_cache_hit_share"] = share("gateway.detail")
	v["index.notif_cache_hit_share"] = share("index.notification")
	v["replication.lag_bytes_p50"] = median(lag)
	v["replication.catchup_ms"] = 0 // filled by teardown for the fleet
}

var auditLine = regexp.MustCompile(`audit chain verified: (\d+) records intact`)

// teardown lets followers catch up, drains the daemons, and verifies what
// they left on disk: callback accounting, every audit chain intact and of
// the expected length, no follower forked from its primary.
func (r *rig) teardown(ctx context.Context, res *result) {
	problem := func(format string, args ...any) {
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
	if r.s.fleet {
		took, err := r.waitCaughtUp(ctx)
		if err != nil {
			problem("%v", err)
		}
		res.values["replication.catchup_ms"] = ms(took)
	}
	if r.hub != nil {
		if err := r.hub.audit(int(r.acked.Load())); err != nil {
			problem("callbacks: %v", err)
		}
	}
	for _, p := range r.sut() {
		if err := p.stop(); err != nil {
			problem("%v", err)
		}
	}
	r.e.forget(r.sut())

	chain := func(p *proc) (uint64, bool) {
		out, err := r.e.run("css-audit", "-data", p.data, "-verify")
		m := auditLine.FindStringSubmatch(out)
		if err != nil || m == nil {
			problem("css-audit -verify %s: %v: %s", p.name, err, out)
			return 0, false
		}
		n, _ := strconv.ParseUint(m[1], 10, 64)
		return n, true
	}
	var total, want uint64
	for i, p := range r.primaries {
		n, ok := chain(p)
		if !ok {
			continue
		}
		total += n
		want += r.auditBase[i]
		if i < len(r.followers) {
			if fn, ok := chain(r.followers[i]); ok && fn != n {
				problem("%s holds %d audit records, its primary %d", r.followers[i].name, fn, n)
			}
			if out, err := r.e.run("css-audit", "-data", p.data, "-compare", r.followers[i].data); err != nil {
				problem("css-audit -compare %s: %v: %s", r.followers[i].name, err, out)
			}
		}
	}
	want += uint64(r.subscriptions) + uint64(r.acked.Load()+r.detailReqs.Load()+r.inquiries.Load())
	if res.failed == 0 && total != want {
		problem("audit chains hold %d records, want %d (history + subscriptions + publishes + detail requests + inquiries)", total, want)
	}
	sort.Strings(res.problems)
}
