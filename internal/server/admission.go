package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
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

// admission is the bounded queue in front of the session slot: at
// most maxQueue callers may wait, the rest are shed immediately, and a
// waiter that outlives the queue timeout is shed too — the server
// promises a bounded wait or a fast no, never a slow maybe.
type admission struct {
	// tickets are the queue slots: a caller holds one exactly while it
	// waits for the session, so len(tickets) is the queue depth.
	tickets chan struct{}
	timeout time.Duration

	// solve is the registered cophyd_solve_seconds series: every
	// in-slot solve's wall time over the daemon's lifetime. recent
	// holds the last len(recent) of them (n in all), the basis of
	// Retry-After, so the estimate follows the current latency regime
	// (cache warmed, workload compacted) rather than the lifetime one.
	solve  *obs.Histogram
	mu     sync.Mutex
	recent [16]time.Duration
	n      int

	peak atomic.Int64 // high-water mark of the queue depth
	shed *obs.Counter // requests refused with ErrOverloaded
}

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
		solve: reg.Histogram("cophyd_solve_seconds",
			"In-slot recommendation wall time: candidate generation plus solve."),
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
	d := int64(len(a.tickets))
	for {
		p := a.peak.Load()
		if d <= p || a.peak.CompareAndSwap(p, d) {
			break
		}
	}
	timer := time.NewTimer(a.timeout)
	defer timer.Stop()
	select {
	case sem <- struct{}{}:
		<-a.tickets // queued → in service: the queue slot frees for the next caller
		return func() { <-sem }, nil
	case <-timer.C:
		<-a.tickets
		a.shed.Inc()
		return nil, fmt.Errorf("%w: queued longer than %s", ErrOverloaded, a.timeout)
	case <-ctx.Done():
		<-a.tickets
		return nil, ctx.Err()
	}
}

// observe records one completed solve's wall time.
func (a *admission) observe(d time.Duration) {
	a.solve.Observe(d)
	a.mu.Lock()
	a.recent[a.n%len(a.recent)] = d
	a.n++
	a.mu.Unlock()
}

// retryAfter estimates, in whole seconds (≥1, capped at 60), how long
// a shed caller should wait: the queue ahead of it times the p95 of the
// recent solves — pessimistic on purpose, since a caller that returns
// too early is shed again. With no solve observed yet it answers 1,
// the only honest number before data exists.
func (a *admission) retryAfter() int {
	a.mu.Lock()
	recent := slices.Clone(a.recent[:min(a.n, len(a.recent))])
	a.mu.Unlock()
	if len(recent) == 0 {
		return 1
	}
	slices.Sort(recent)
	p95 := recent[int(math.Ceil(0.95*float64(len(recent))))-1] // nearest rank
	// Ahead of the caller: everyone queued plus the one in service.
	sec := math.Ceil(p95.Seconds() * float64(len(a.tickets)+1))
	return int(min(max(sec, 1), 60))
}
