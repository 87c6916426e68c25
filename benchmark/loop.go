package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's width: one goroutine and one keep-alive
// connection each. The callers modelled are agency systems that wait for
// an ack and react to a notification before sending the next event, and
// the reference box has two cores.
const clients = 2

// echoEvery is how often each client measures the echo round trip,
// between flows. Time-based so a slow workload still collects enough
// reference samples per window.
const echoEvery = 4 * time.Millisecond

// flowFunc runs flow number i on behalf of a client and returns how long
// its client-visible request took. A non-nil error fails the flow.
type flowFunc func(ctx context.Context, client, i int) (request time.Duration, err error)

// echoFunc performs one round trip to the echo process on the client's
// own connection.
type echoFunc func(client int) error

// loopResult is what a closed-loop phase produced.
type loopResult struct {
	flows       []flowSample
	echoes      []echoSample
	attempted   int
	failed      int
	errs        []error // first few failures, for the report
	phase       time.Duration
	maxInFlight int32
}

// flowTimeout bounds one flow; a flow that takes longer fails.
const flowTimeout = 5 * time.Second

// runClosedLoop drives flows 0..limit-1 from `clients` goroutines, each
// starting its next flow only when its previous one has completed, until
// dur elapses or the flows run out (dur <= 0 means "until they run out").
// Flow indices are handed out in order, so the same seed replays the same
// stream whatever the interleaving.
func runClosedLoop(ctx context.Context, dur time.Duration, limit int, flow flowFunc, echo echoFunc) loopResult {
	var (
		mu       sync.Mutex
		res      loopResult
		next     atomic.Int64
		inFlight atomic.Int32
		maxSeen  atomic.Int32
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var flows []flowSample
			var echoes []echoSample
			var errs []error
			attempted, failed := 0, 0
			var lastEcho time.Time
			for ctx.Err() == nil {
				began := time.Now()
				if dur > 0 && began.Sub(start) >= dur {
					break
				}
				if echo != nil && began.Sub(lastEcho) >= echoEvery {
					if err := echo(c); err == nil {
						echoes = append(echoes, echoSample{at: began.Sub(start), rtt: time.Since(began)})
					}
					lastEcho = time.Now()
					began = lastEcho
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					break
				}
				n := inFlight.Add(1)
				for {
					m := maxSeen.Load()
					if n <= m || maxSeen.CompareAndSwap(m, n) {
						break
					}
				}
				fctx, cancel := context.WithTimeout(ctx, flowTimeout)
				req, err := flow(fctx, c, i)
				cancel()
				took := time.Since(began)
				inFlight.Add(-1)
				attempted++
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, err)
					}
					continue
				}
				flows = append(flows, flowSample{at: began.Sub(start), request: req, flow: took})
			}
			mu.Lock()
			res.flows = append(res.flows, flows...)
			res.echoes = append(res.echoes, echoes...)
			res.attempted += attempted
			res.failed += failed
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.phase = time.Since(start)
	if dur > 0 && res.phase > dur {
		// Flows are assigned to windows by start time, and none starts
		// after dur.
		res.phase = dur
	}
	res.maxInFlight = maxSeen.Load()
	return res
}
