package server

import (
	"repro/internal/obs"
)

// registerMetrics builds the daemon's metric set on its registry
// and assigns the counter handles the rest of the package mutates.
// Every /stats field reads the same registered value /metrics exposes —
// one source of truth, so the two views can never disagree. Derived
// values another subsystem already maintains (the stream's clocks, the
// INUM cache size, the admission queue depth, the store's disk errors)
// are registered as closures read at exposition time instead of being
// double-counted.
//
// The admission queue registers its own shed counter and solve-latency
// histogram on the same registry (admission.go).
//
// Called from New after the stream and admission queue exist but
// before recovery (recovery re-seeds the ingested counter via Store).
func (d *Daemon) registerMetrics(reg *obs.Registry) {
	d.reg = reg

	d.ingested = reg.Counter("cophyd_ingested_statements_total",
		"Statements folded into the live workload by /ingest.")
	d.whatifs = reg.Counter("cophyd_whatifs_total",
		"Hypothetical costings answered by /whatif.")
	d.recommends = reg.Counter("cophyd_recommends_total",
		"Recommendations solved (coalesced followers excluded).")
	d.coalesced = reg.Counter("cophyd_coalesced_requests_total",
		"Recommendation requests that shared another request's solve.")
	d.compactions = reg.Counter("cophyd_session_compactions_total",
		"Recommendations that dropped candidates no live statement generates anymore.")
	d.walRecords = reg.Counter("cophyd_wal_records_total",
		"Records appended to the write-ahead log.")
	d.snapshots = reg.Counter("cophyd_snapshots_total",
		"Durable snapshots written.")
	d.persistErrors = reg.Counter("cophyd_persist_errors_total",
		"Failed durability-layer writes.")
	d.degradedEntries = reg.Counter("cophyd_degraded_entries_total",
		"Healthy-to-degraded transitions over the daemon's lifetime.")

	// Derived views: read at exposition time from their owners.
	reg.GaugeFunc("cophyd_live_statements",
		"Distinct statements in the live workload.",
		func() float64 { return float64(d.stream.Len()) })
	reg.GaugeFunc("cophyd_live_weight",
		"Total decayed weight of the live workload.",
		func() float64 { return d.stream.LiveWeight() })
	reg.CounterFunc("cophyd_observed_statements_total",
		"Lifetime statements observed by the stream.",
		func() float64 { return float64(d.stream.Observed()) })
	reg.CounterFunc("cophyd_decay_ticks_total",
		"Decay clock ticks (one per ingest batch).",
		func() float64 { return float64(d.stream.Ticks()) })
	reg.GaugeFunc("cophyd_queue_depth",
		"Recommendation requests waiting for the session right now.",
		func() float64 { return float64(len(d.adm.tickets)) })
	reg.GaugeFunc("cophyd_queue_peak",
		"High-water mark of the admission queue depth.",
		func() float64 { return float64(d.adm.peak.Load()) })
	reg.CounterFunc("cophyd_inum_prep_calls_total",
		"INUM preparation calls (optimizer invocations saved show up as a plateau).",
		func() float64 { return float64(d.ad.Inum.PrepStats()) })
	reg.CounterFunc("cophyd_evicted_entries_total",
		"Derived template-plan shapes dropped by the INUM cache's bound.",
		func() float64 { return float64(d.ad.Inum.ShapeEvictions()) })
	reg.CounterFunc("cophyd_plan_cache_hits_total",
		"Shape lookups served from the plan cache without re-derivation.",
		func() float64 { h, _ := d.ad.Inum.ShapeStats(); return float64(h) })
	reg.CounterFunc("cophyd_plan_cache_misses_total",
		"Shape lookups that derived template plans for a new shape.",
		func() float64 { _, m := d.ad.Inum.ShapeStats(); return float64(m) })
	reg.GaugeFunc("cophyd_plan_shapes",
		"Distinct query shapes with compiled template plans resident in the cache.",
		func() float64 { return float64(d.ad.Inum.ShapeCount()) })
	reg.CounterFunc("cophyd_disk_errors_total",
		"Failed filesystem operations observed by the store.",
		func() float64 {
			if d.store == nil {
				return 0
			}
			return float64(d.store.DiskErrors())
		})
	for _, state := range []string{"healthy", "degraded", "draining"} {
		state := state
		reg.GaugeFunc("cophyd_health",
			"Serving state (1 on the active state's series, 0 elsewhere).",
			func() float64 {
				if cur, _ := d.Health(); cur == state {
					return 1
				}
				return 0
			}, obs.L("state", state))
	}
}

// Help strings for the per-request families created lazily by the
// middleware (per endpoint/status) and the span fold (per span name).
const (
	helpHTTPSeconds  = "End-to-end request latency by endpoint."
	helpHTTPRequests = "Requests served, by endpoint and status code."
	helpSpanSeconds  = "Time spent inside a named request span (queue waits, solver phases, WAL appends)."
)
