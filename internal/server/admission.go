package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrOverloaded is returned (wrapped) by Recommend when the admission
// queue sheds the request — the queue is full, or the request waited
// out its queue timeout without reaching the session. The HTTP layer
// maps it to 429 with a Retry-After computed from the observed solve
// latency.
var ErrOverloaded = errors.New("server overloaded")

// admission is the bounded queue in front of the session slot. The
// previous design was a bare capacity-1 semaphore: under a burst every
// caller parked on it until its own deadline fired, so overload
// surfaced as N slow 503s instead of N−1 fast 429s. Now at most
// maxQueue callers may wait; the rest are shed immediately, and a
// waiter that outlives the queue timeout is shed too — the server
// promises a bounded wait or a fast no, never a slow maybe.
type admission struct {
	tickets chan struct{} // queue slots: holders are waiting for the session
	timeout time.Duration

	// solve records in-slot solve wall time — the basis for
	// Retry-After: a shed caller is told to come back after roughly the
	// p95 solve time for each request ahead of it. It is a sliding
	// window layered over the registered cophyd_solve_seconds series,
	// so Retry-After reads the *recent* p95 — after a latency regime
	// shift (cache warmed, workload compacted) the estimate tracks the
	// new regime within retryWindow instead of being dragged by the
	// lifetime distribution — while the exposition still sees every
	// sample. With nothing in the window (an idle server's first burst)
	// the lifetime p95 is the fallback.
	solve       *obs.WindowedHistogram
	retryWindow time.Duration

	depth atomic.Int64 // callers currently queued
	peak  atomic.Int64 // high-water mark of depth
	shed  *obs.Counter // requests refused with ErrOverloaded
}

// The Retry-After window: the last five minutes of solves, kept in
// four 75 s sub-windows.
const (
	retryWindow = 5 * time.Minute
	retryEpoch  = retryWindow / 4
)

// newAdmission builds the queue and registers its shed counter and
// solve-latency histogram on reg, so they share the daemon's exposition.
func newAdmission(maxQueue int, timeout time.Duration, reg *obs.Registry) *admission {
	if maxQueue <= 0 {
		maxQueue = 16
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &admission{
		tickets: make(chan struct{}, maxQueue),
		timeout: timeout,
		solve: obs.NewWindowedHistogram(reg.Histogram("cophyd_solve_seconds",
			"In-slot recommendation wall time: candidate generation plus solve."),
			retryEpoch, retryWindow),
		retryWindow: retryWindow,
		shed: reg.Counter("cophyd_shed_requests_total",
			"Recommendation requests refused with 429 by the admission queue."),
	}
}

// admit queues the caller for the session slot. On success it returns
// a release function the caller must invoke when done with the
// session. Failure modes: a full queue or an expired queue timeout
// shed with ErrOverloaded; a dead caller context returns its error.
func (a *admission) admit(ctx context.Context, sem chan struct{}) (func(), error) {
	select {
	case a.tickets <- struct{}{}:
	default:
		a.shed.Inc()
		return nil, fmt.Errorf("%w: admission queue full (%d waiting)", ErrOverloaded, cap(a.tickets))
	}
	d := a.depth.Add(1)
	for {
		p := a.peak.Load()
		if d <= p || a.peak.CompareAndSwap(p, d) {
			break
		}
	}
	leave := func() {
		a.depth.Add(-1)
		<-a.tickets
	}
	timer := time.NewTimer(a.timeout)
	defer timer.Stop()
	select {
	case sem <- struct{}{}:
		leave() // queued → in service: the queue slot frees for the next caller
		return func() { <-sem }, nil
	case <-timer.C:
		leave()
		a.shed.Inc()
		return nil, fmt.Errorf("%w: queued longer than %s", ErrOverloaded, a.timeout)
	case <-ctx.Done():
		leave()
		return nil, ctx.Err()
	}
}

// observe folds one completed solve's wall time into the windowed
// latency histogram (whose lifetime side is the cophyd_solve_seconds
// exposition).
func (a *admission) observe(d time.Duration) {
	a.solve.Observe(d)
}

// retryAfter estimates, in whole seconds (≥1, capped at 60), how long
// a shed caller should wait: the queue ahead of it times the p95 solve
// latency over the recent window — pessimistic on purpose, since a
// caller that returns too early is shed again, but never stale: the
// lifetime distribution only answers when the window is empty. With no
// solve observed at all it answers 1, the only honest number before
// data exists.
func (a *admission) retryAfter() int {
	snap := a.solve.WindowSnapshot(a.retryWindow)
	if snap.Count == 0 {
		snap = a.solve.Snapshot()
	}
	if snap.Count == 0 {
		return 1
	}
	backlog := float64(a.depth.Load() + 1) // queued callers plus the one in service
	sec := math.Ceil(float64(snap.Quantile(0.95)) * backlog / float64(time.Second))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return int(sec)
}
