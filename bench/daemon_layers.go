package main

import (
	"os"
	"time"

	"repro/internal/persist"
	"repro/internal/workload"
)

// layerMetrics fills in daemon_mix's per-layer metrics from the traced
// pass (every other request a direct call under an obs.Trace), the
// untraced pass before it, the counters the daemon exports, and two
// probes: workload.Parse over the script's batches, and Store.Append
// of the script's payloads on a sibling store.
func (in *daemonInputs) layerMetrics(r *report, cfg config, rec *recorder, plain, traced *played) error {
	// Request path: handler latency, direct-call latency, and their
	// difference — routing, JSON and the tracing middleware.
	for _, k := range []opKind{opIngest, opWhatIf, opRecommend} {
		viaHandler, direct := in.series(traced, k, false), in.series(traced, k, true)
		scale, unit := 1e6, "_us"
		if k == opRecommend {
			scale, unit = 1e3, "_ms"
		}
		r.timing("server."+opNames[k]+"_direct"+unit, direct, scale)
		r.set("server.http_overhead_us."+opNames[k], (viaHandler.median()-direct.median())*1e6)
	}
	ingests, whatifs := in.series(plain, opIngest, false), in.series(plain, opWhatIf, false)
	r.set("server.ingest_p50_ms", ingests.median()*1e3)
	r.set("server.ingest_p95_ms", ingests.p(0.95)*1e3)
	r.set("server.whatif_p50_us", whatifs.median()*1e6)
	r.set("server.whatif_p99_us", whatifs.p(0.99)*1e6)
	r.set("server.recommend_cold_ms", plain.coldWall.Seconds()*1e3)
	r.set("server.recover_s", plain.recover.Seconds())

	// A warm /recommend, by the spans the daemon itself records.
	r.timing("server.ingest_wal_us", traced.spans["ingest/wal.append"], 1e6)
	r.timing("server.recommend_queue_ms", traced.spans["recommend/queue.wait"], 1e3)
	r.timing("cophy.candgen_s", traced.spans["recommend/candgen"], 1)
	r.timing("inum.prepare_s", traced.spans["recommend/inum"], 1)
	r.timing("cophy.build_s", traced.spans["recommend/build"], 1)
	r.timing("lagrange.solve_s", traced.spans["recommend/solve"], 1)
	r.timing("server.recommend_wal_ms", traced.spans["recommend/wal.append"], 1e3)
	r.timing("server.unattributed_share", traced.unspent, 1)

	// What tracing cost: the requests that went through the handler in
	// the traced pass against the very same requests of the untraced one.
	var with, without time.Duration
	for i, o := range in.ops {
		if o.timed && !traced.direct[i] {
			with += traced.wall[i]
			without += plain.wall[i]
		}
	}
	r.setTraceHealth(rec, "direct.recommend", without.Seconds(), with.Seconds())

	st := traced.before
	r.set("cophy.candidates", float64(traced.last.Candidates))
	r.set("inum.shape_hits", float64(st.PlanCacheHits))
	r.set("inum.shape_misses", float64(st.PlanCacheMisses))
	if n := st.PlanCacheHits + st.PlanCacheMisses; n > 0 {
		r.set("inum.shape_hit_ratio", float64(st.PlanCacheHits)/float64(n))
	}
	r.set("lagrange.numeric_fallbacks", float64(st.NumericFallbacks))
	r.set("lagrange.warm_downgrades", float64(st.WarmDowngrades))
	r.set("server.compactions", float64(st.SessionCompactions))
	r.set("server.rebases", float64(st.SessionRebases))
	r.set("server.evicted_entries", float64(st.EvictedEntries))
	r.set("persist.wal_records", float64(st.WALRecords))
	r.set("persist.snapshot_s", traced.snapshot.Millis/1e3)
	r.set("persist.snapshot_bytes", float64(traced.snapshot.Bytes))

	// Probe: the parser over every batch of the script.
	var parse samples
	var parsed int
	for _, o := range in.ops {
		if o.kind != opIngest {
			continue
		}
		t := time.Now()
		w, err := workload.Parse(in.sys.cat, o.sql)
		parse = append(parse, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		parsed += w.Size()
	}
	var parseTotal float64
	for _, v := range parse {
		parseTotal += v
	}
	r.timing("workload.parse_s", parse, 1)
	r.set("workload.parse_stmts_per_s", float64(parsed)/parseTotal)

	// Probe: durable appends of the script's payload sizes.
	dir, err := os.MkdirTemp(cfg.outDir, "sibling-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := persist.Open(dir, persist.Options{Sync: true})
	if err != nil {
		return err
	}
	if _, err := store.Recover(nil, nil); err != nil {
		return err
	}
	var appends, sizes samples
	for _, o := range in.ops {
		if o.kind != opIngest {
			continue
		}
		t := time.Now()
		err := store.Append(o.body)
		appends = append(appends, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(len(o.body)))
	}
	r.timing("persist.append_us", appends, 1e6)
	r.set("persist.append_bytes", sizes.median())
	return store.Close()
}
