package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// planSeededDir runs generation 1 of the restart fixtures: ingest a
// workload, recommend (deriving template plans for every shape), and
// write a snapshot so the plan payload is on disk. Returns the data
// directory.
func planSeededDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	d1 := durableDaemon(t, dir, nil)
	srv1 := httptest.NewServer(d1.Handler())
	defer srv1.Close()

	gen := workload.Hom(workload.HomConfig{Queries: 20, Seed: 17})
	post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)
	var rec RecommendResult
	if resp := post(t, srv1, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("gen1 recommend: status %d", resp.StatusCode)
	}
	if d1.ad.Inum.ShapeCount() == 0 {
		t.Fatal("fixture broken: recommend derived no shapes")
	}
	var snap SnapshotResult
	if resp := post(t, srv1, "/snapshot", struct{}{}, &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("gen1 snapshot: status %d", resp.StatusCode)
	}
	return dir
	// srv1.Close without store.Close or a shutdown snapshot: SIGKILL.
}

// TestRestartImportsPlansZeroDerivations is the ISSUE's restart
// acceptance pin: a kill -9 restart over a snapshot carrying a valid
// plan payload imports the compiled template plans directly and the
// background re-prepare performs ZERO TemplatePlan derivations —
// counter-asserted on the engine's what-if counter, which every
// TemplatePlan path increments.
func TestRestartImportsPlansZeroDerivations(t *testing.T) {
	dir := planSeededDir(t)

	d2 := durableDaemon(t, dir, nil)
	st := d2.Snapshot()
	if st.Recovery == nil || st.Recovery.PlanShapes == 0 {
		t.Fatalf("recovery imported no plan shapes: %+v", st.Recovery)
	}
	if st.Recovery.PlanStale {
		t.Fatalf("identical environment reported stale plans: %+v", st.Recovery)
	}
	waitFor(t, "background re-prepare to finish", func() bool { return !d2.warming.Load() })

	if calls := d2.eng.WhatIfCalls(); calls != 0 {
		t.Fatalf("re-prepare over a valid plan payload performed %d TemplatePlan derivations, want 0", calls)
	}
	if hits, misses := d2.ad.Inum.ShapeStats(); misses != 0 || hits == 0 {
		t.Fatalf("shape cache hits=%d misses=%d after import, want all hits", hits, misses)
	}
	st = d2.Snapshot()
	if st.PlanCacheStale != 0 {
		t.Fatalf("plan_cache_stale = %d, want 0", st.PlanCacheStale)
	}
	if st.Warming {
		t.Fatal("stats still report warming after the flag cleared")
	}
	if st.Recovery.WarmMillis <= 0 {
		t.Fatalf("warming finished without reporting WarmMillis: %+v", st.Recovery)
	}

	// The imported plans must actually serve: a recommendation over the
	// recovered stream answers without error or derivation.
	recommendWithoutDerivations(t, d2)
}

// recommendWithoutDerivations recommends over a recovered daemon whose
// warm-up has finished and fails unless the recommendation is sound and
// performed zero TemplatePlan calls — the warm-up covered every live
// statement's shape.
func recommendWithoutDerivations(t *testing.T, d *Daemon) {
	t.Helper()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	calls := d.eng.WhatIfCalls()
	var rec RecommendResult
	if resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart recommend: status %d", resp.StatusCode)
	}
	if rec.Infeasible || len(rec.Indexes) == 0 {
		t.Fatalf("post-restart recommendation degenerate: %+v", rec)
	}
	if got := d.eng.WhatIfCalls() - calls; got != 0 {
		t.Fatalf("recommend after the warm-up performed %d TemplatePlan calls, want 0", got)
	}
}

// TestRestartStalePlansRederive: the same snapshot recovered under a
// different cost profile carries a stamp from another derivation
// environment. Recovery must degrade — discard the payload, count it
// in plan_cache_stale, re-derive in the background — and never refuse.
func TestRestartStalePlansRederive(t *testing.T) {
	dir := planSeededDir(t)

	d2 := durableDaemon(t, dir, func(c *Config) {
		c.Engine = engine.New(c.Catalog, engine.SystemB())
	})
	st := d2.Snapshot()
	if st.Recovery == nil || !st.Recovery.PlanStale {
		t.Fatalf("changed profile not reported stale: %+v", st.Recovery)
	}
	if st.Recovery.PlanShapes != 0 {
		t.Fatalf("stale payload still imported %d shapes", st.Recovery.PlanShapes)
	}
	if st.PlanCacheStale != 1 {
		t.Fatalf("plan_cache_stale = %d, want 1", st.PlanCacheStale)
	}
	waitFor(t, "background re-derivation to finish", func() bool { return !d2.warming.Load() })

	if calls := d2.eng.WhatIfCalls(); calls == 0 {
		t.Fatal("stale payload recovery performed no derivations — plans were not rebuilt")
	}
	recommendWithoutDerivations(t, d2)
}

// TestRecoverSnapshotWithoutPlans: a snapshot written before any plans
// existed (byte-identical to the pre-plan-payload snapshot format —
// the plans field is simply absent) recovers cleanly: nothing
// imported, nothing stale, plans re-derived in the background.
func TestRecoverSnapshotWithoutPlans(t *testing.T) {
	dir := t.TempDir()
	d1 := durableDaemon(t, dir, nil)
	srv1 := httptest.NewServer(d1.Handler())
	gen := workload.Hom(workload.HomConfig{Queries: 8, Seed: 3})
	post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)
	// No recommend: the shape cache is empty, so the snapshot carries
	// no plans field — exactly an old-format snapshot.
	var snap SnapshotResult
	if resp := post(t, srv1, "/snapshot", struct{}{}, &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	srv1.Close()

	d2 := durableDaemon(t, dir, nil)
	st := d2.Snapshot()
	if st.Recovery == nil || !st.Recovery.HadSnapshot {
		t.Fatalf("recovery missed the snapshot: %+v", st.Recovery)
	}
	if st.Recovery.PlanShapes != 0 || st.Recovery.PlanStale || st.PlanCacheStale != 0 {
		t.Fatalf("plan-less snapshot misread: %+v stale=%d", st.Recovery, st.PlanCacheStale)
	}
	waitFor(t, "background derivation to finish", func() bool { return !d2.warming.Load() })
	if calls := d2.eng.WhatIfCalls(); calls == 0 {
		t.Fatal("no derivations after plan-less recovery — cache cannot be warm")
	}
	recommendWithoutDerivations(t, d2)
}
