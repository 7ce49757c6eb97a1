package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"
)

// reqTiming is one open-loop request: when it was due, when the
// generator actually sent it, and when a 2xx response arrived.
type reqTiming struct {
	due, sent, done time.Time
	attempts        int // HTTP requests issued, retries included
	refused         int // 429 responses (each also counts as failed)
	failed          int // non-2xx responses and transport errors
}

// latency is measured from the due time, so a stall also charges the
// wait it imposed on every request queued behind it.
func (r reqTiming) latency() time.Duration { return r.done.Sub(r.due) }

// late is how far behind its schedule the generator sent the request.
func (r reqTiming) late() time.Duration { return r.sent.Sub(r.due) }

const (
	// spinWindow is how long before a due time the generator stops
	// sleeping and polls the clock, so timer wake-up jitter does not
	// make it late.
	spinWindow   = time.Millisecond
	retryBackoff = 2 * time.Millisecond
	maxFailures  = 50               // non-429 failures of one request before giving up
	maxRetrying  = 10 * time.Second // how long one request may keep being refused
)

// openLoop sends n requests, request i due at start + i*interval, one at
// a time: a request that is still outstanding when the next falls due
// delays it, and that delay shows up as lateness and latency, never as
// a lower offered rate. A 429 is retried after a short backoff until
// it succeeds, for up to maxRetrying; any other failure is retried up
// to maxFailures times.
// After each request, idle (if not nil) is called with the next due
// time.
func openLoop(start time.Time, n int, interval time.Duration, send func(i int) (int, error), idle func(next time.Time)) ([]reqTiming, error) {
	out := make([]reqTiming, n)
	for i := 0; i < n; i++ {
		r := &out[i]
		r.due = start.Add(time.Duration(i) * interval)
		if d := time.Until(r.due); d > spinWindow {
			time.Sleep(d - spinWindow)
		}
		for time.Now().Before(r.due) {
			runtime.Gosched()
		}
		r.sent = time.Now()
		for {
			code, err := send(i)
			r.attempts++
			if err == nil && code/100 == 2 {
				break
			}
			r.failed++
			if code == http.StatusTooManyRequests {
				r.refused++
			}
			if r.failed-r.refused >= maxFailures || time.Since(r.sent) > maxRetrying {
				return out[:i+1], fmt.Errorf("request %d: status %d after %d attempts: %v", i, code, r.attempts, err)
			}
			time.Sleep(retryBackoff)
		}
		r.done = time.Now()
		if idle != nil {
			idle(start.Add(time.Duration(i+1) * interval))
		}
	}
	return out, nil
}

// loadSummary aggregates the timings of one or more open loops.
type loadSummary struct {
	ack, late              samples // ms
	attempted, failed, ref int
}

func summarize(loops ...[]reqTiming) loadSummary {
	var s loadSummary
	for _, l := range loops {
		for _, r := range l {
			s.ack = append(s.ack, ms(r.latency()))
			s.late = append(s.late, ms(r.late()))
			s.attempted += r.attempts
			s.failed += r.failed
			s.ref += r.refused
		}
	}
	return s
}

// rungResult is the outcome of one offered rate of the max_ok_rate
// ladder.
type rungResult struct {
	rate       float64 // offered segments per second, all sessions
	ackP99     float64 // ms
	refused    int
	depthFirst float64 // mean queue depth over the rung's first quarter
	depthLast  float64 // mean queue depth over its last quarter
}

// ok reports whether the rung meets the limit: p99 ack latency within
// limitMs, nothing refused, and no growing backlog (the queue at the end
// of the rung no deeper than at its start, give or take two segments).
func (r rungResult) ok(limitMs float64) bool {
	return r.ackP99 <= limitMs && r.refused == 0 && r.depthLast <= r.depthFirst+2
}

// ladderRate returns rung k of the fixed max_ok_rate ladder: offered
// segments per second over all sessions, eight rungs per doubling.
func ladderRate(k int) float64 { return ladderBase * math.Exp2(float64(k)/8) }

// searchLadder finds the highest rung that meets the limit by bisection
// over rungs 1..ladderTop, given that rung 0 (the nominal rate) was
// already measured as ok0. It assumes a rung above a failing rung also
// fails, so it runs about log2(ladderTop) rungs instead of all of them.
// A failing rung is run a second time and fails only if that run fails
// too, so one burst of interference from outside the process does not
// send the bisection down. It returns the rate of the highest passing
// rung (0 if rung 0 failed) and every rung it ran.
func searchLadder(ok0 bool, limitMs float64, run func(rate float64) (rungResult, error)) (float64, []rungResult, error) {
	if !ok0 {
		return 0, nil, nil
	}
	lo, hi := 0, ladderTop+1 // lo passes; hi fails or lies beyond the ladder
	var rungs []rungResult
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok := false
		for try := 0; try < 2 && !ok; try++ {
			r, err := run(ladderRate(mid))
			if err != nil {
				return ladderRate(lo), rungs, err
			}
			rungs = append(rungs, r)
			ok = r.ok(limitMs)
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ladderRate(lo), rungs, nil
}

// quarterMeans returns the mean of the first and last quarter of xs.
func quarterMeans(xs []float64) (first, last float64) {
	q := len(xs) / 4
	if q == 0 {
		return 0, 0
	}
	for _, x := range xs[:q] {
		first += x
	}
	for _, x := range xs[len(xs)-q:] {
		last += x
	}
	return first / float64(q), last / float64(q)
}
