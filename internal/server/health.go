package server

import (
	"errors"
	"fmt"
	"time"
)

// ErrDegraded is returned (wrapped, naming the cause) by the mutating
// endpoints while the daemon is in degraded mode: the durability layer
// has failed persistently, so writes that could not be made durable
// are refused rather than silently accepted. The HTTP layer maps it to
// 503 with a Retry-After. Read paths (/whatif, /stats) stay up.
var ErrDegraded = errors.New("daemon degraded (read-only)")

// Health states. The machine is: healthy → degraded (on a durability
// failure) → healthy (when a background probe finds the data directory
// writable again); healthy|degraded → draining (at shutdown, one-way).
const (
	stateHealthy int32 = iota
	stateDegraded
	stateDraining
)

func healthName(s int32) string {
	switch s {
	case stateDegraded:
		return "degraded"
	case stateDraining:
		return "draining"
	default:
		return "healthy"
	}
}

// Health reports the daemon's current state ("healthy", "degraded" or
// "draining") and, when degraded, the cause.
func (d *Daemon) Health() (state, cause string) {
	s := d.health.Load()
	if s == stateDegraded {
		if c := d.degradedCause.Load(); c != nil {
			cause = *c
		}
	}
	return healthName(s), cause
}

// checkWritable refuses mutations while degraded, naming the cause.
func (d *Daemon) checkWritable() error {
	if d.health.Load() != stateDegraded {
		return nil
	}
	var cause string
	if c := d.degradedCause.Load(); c != nil {
		cause = *c
	}
	return fmt.Errorf("%w: %s", ErrDegraded, cause)
}

// enterDegraded transitions healthy → degraded and starts the re-probe
// loop. Idempotent and cheap under concurrent failures: every caller
// records its cause before the CAS (the latest failure is the one
// reported), but only the CAS winner counts the entry and spawns the
// prober, so a daemon already degraded (or draining) gets no second
// prober.
func (d *Daemon) enterDegraded(cause error) {
	if d.store == nil {
		return
	}
	// Cause first, transition second: a reader that observes degraded
	// always finds a cause.
	msg := cause.Error()
	d.degradedCause.Store(&msg)
	if !d.health.CompareAndSwap(stateHealthy, stateDegraded) {
		return
	}
	d.degradedEntries.Add(1)
	go d.probeLoop()
}

// probeLoop re-probes the data directory with bounded exponential
// backoff until it is writable again (→ healthy) or the daemon starts
// draining. Probe also repairs any torn WAL tail, so recovery is not
// just observed but actively completed.
func (d *Daemon) probeLoop() {
	backoff := d.probeBase
	for {
		time.Sleep(backoff)
		if d.health.Load() != stateDegraded {
			return
		}
		if err := d.store.Probe(); err == nil {
			d.degradedCause.Store(nil)
			d.health.CompareAndSwap(stateDegraded, stateHealthy)
			return
		}
		if backoff *= 2; backoff > d.probeMax {
			backoff = d.probeMax
		}
	}
}

// StartDraining marks the daemon draining: /healthz turns 503 so load
// balancers stop routing here, while in-flight and late-arriving
// requests still complete — graceful shutdown's first step, one-way.
// The shutdown flush (the final WriteSnapshot) still runs in this
// state; only the health signal changes.
func (d *Daemon) StartDraining() {
	d.health.Store(stateDraining)
}
