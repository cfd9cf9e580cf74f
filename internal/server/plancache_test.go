package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/persist"
	"repro/internal/workload"
)

// planSeededDir runs generation 1 of the restart fixtures: ingest a
// workload, recommend (deriving template plans for every shape and
// warming the session), and write a snapshot. Returns the data
// directory and the generation-1 daemon, abandoned without shutdown.
func planSeededDir(t *testing.T) (string, *Daemon) {
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
	return dir, d1
	// srv1.Close without store.Close or a shutdown snapshot: SIGKILL.
}

// TestRestartWarmUpDerivesEachShapeOnce: snapshots carry no template
// plans, so a restarted daemon's background warm-up derives them. Once
// warming ends, the shape cache has missed exactly once per distinct
// shape among the recovered statements, and the next /recommend adds
// no miss and solves warm.
func TestRestartWarmUpDerivesEachShapeOnce(t *testing.T) {
	dir, _ := planSeededDir(t)

	d2 := durableDaemon(t, dir, nil)
	waitFor(t, "background warm-up to finish", func() bool { return !d2.warming.Load() })
	assertWarmedUp(t, d2)
	st := d2.Snapshot()
	if st.Warming {
		t.Fatal("stats still report warming after the flag cleared")
	}
	if st.Recovery.WarmMillis <= 0 {
		t.Fatalf("warming finished without reporting WarmMillis: %+v", st.Recovery)
	}
	if st.PlanShapes != int(st.PlanCacheMisses) {
		t.Fatalf("plan_shapes = %d resident after %d misses", st.PlanShapes, st.PlanCacheMisses)
	}
}

// assertWarmedUp checks a recovered daemon whose warm-up has finished:
// one shape-cache miss per distinct shape among the live statements,
// then a /recommend that misses nowhere and solves warm.
func assertWarmedUp(t *testing.T, d *Daemon) {
	t.Helper()
	shapes := map[string]bool{}
	for _, st := range d.stream.Snapshot().Queries() {
		shapes[d.eng.ShapeFingerprint(st.Query)] = true
	}
	_, misses := d.ad.Inum.ShapeStats()
	if len(shapes) == 0 || misses != int64(len(shapes)) {
		t.Fatalf("warm-up missed %d times over %d distinct shapes", misses, len(shapes))
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	var rec RecommendResult
	if resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart recommend: status %d", resp.StatusCode)
	}
	if !rec.Warm || rec.Infeasible || len(rec.Indexes) == 0 {
		t.Fatalf("post-restart recommendation not warm or degenerate: %+v", rec)
	}
	if _, after := d.ad.Inum.ShapeStats(); after != misses {
		t.Fatalf("recommend after the warm-up missed the shape cache %d times, want 0", after-misses)
	}
}

// Stamps that binaries persisting template plans wrote for this
// catalog under System A (matching) and System B (foreign).
const (
	matchingStamp = "cat:965af0a8afda06d8|model:2|prof:System-A,3ff0000000000000,4010000000000000,3f847ae147ae147b,3f747ae147ae147b,3f647ae147ae147b,40b0000000000000,3ff0000000000000,3ff0000000000000,3ff0000000000000,3fc3333333333333"
	foreignStamp  = "cat:965af0a8afda06d8|model:2|prof:System-B,3ff0000000000000,4004000000000000,3f889374bc6a7efa,3f70624dd2f1a9fc,3f689374bc6a7efa,40a0000000000000,3ff599999999999a,3fe3333333333333,3ff4000000000000,3fd0000000000000"
)

// TestRecoverLegacySnapshot: snapshots written before template plans
// stopped being persisted carry a "plans" field stamped by the
// derivation environment they came from. They still recover under
// state schema 1, to the same live statements and a warm session, and
// the plans are derived afresh: the field is ignored.
func TestRecoverLegacySnapshot(t *testing.T) {
	assertRecoversLegacy(t, matchingStamp)
}

// TestRestartStalePlansRederive: a legacy snapshot whose plans carry a
// stamp from another derivation environment recovers just the same —
// never refused, the payload ignored, every shape re-derived once by
// the background warm-up.
func TestRestartStalePlansRederive(t *testing.T) {
	assertRecoversLegacy(t, foreignStamp)
}

// TestRecoverSnapshotWithoutPlans: a snapshot with no plans field at
// all recovers cleanly, and the warm-up derives every shape once.
func TestRecoverSnapshotWithoutPlans(t *testing.T) {
	assertRecoversLegacy(t, "")
}

// assertRecoversLegacy writes a schema-1 snapshot of a generation-1
// daemon, with a "plans" field under stamp (none when stamp is empty),
// and checks that a daemon recovered from it holds the same statements
// and a warm session, and that its warm-up derives each shape once.
func assertRecoversLegacy(t *testing.T, stamp string) {
	t.Helper()
	if stateSchema != 1 {
		t.Fatalf("stateSchema = %d; snapshots with a plans field were written under 1", stateSchema)
	}
	_, d1 := planSeededDir(t)
	want := d1.stream.Export()
	state := persistedState{
		Schema:   stateSchema,
		Stream:   want,
		Ingested: d1.ingested.Load(),
		Session:  d1.sessionStateLocked(d1.lastBudget),
	}
	if state.Session == nil {
		t.Fatal("fixture broken: generation 1 exported no session state")
	}
	raw, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	if stamp != "" {
		// A record that would have served the first statement's shape
		// with a template no derivation produces, had it been imported.
		fp := d1.eng.ShapeFingerprint(d1.stream.Snapshot().Queries()[0].Query)
		plans := fmt.Sprintf(`{"stamp":%q,"shapes":[{"fingerprint":%q,"templates":[{"internal":1,"slots":[{"table":"orders","mode":0}]}]}]}`, stamp, fp)
		raw = append(raw[:len(raw)-1], `,"plans":`+plans+`}`...)
	}
	dir := t.TempDir()
	writeSnapshotPayload(t, dir, raw)

	d2 := durableDaemon(t, dir, nil)
	st := d2.Snapshot()
	if st.Recovery == nil || !st.Recovery.HadSnapshot || !st.Recovery.WarmSession {
		t.Fatalf("recovery: %+v", st.Recovery)
	}
	got := d2.stream.Export()
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("recovered %d statements, want %d", len(got.Entries), len(want.Entries))
	}
	for i := range want.Entries {
		if got.Entries[i] != want.Entries[i] {
			t.Fatalf("entry %d diverged:\n  got  %+v\n  want %+v", i, got.Entries[i], want.Entries[i])
		}
	}
	waitFor(t, "background warm-up to finish", func() bool { return !d2.warming.Load() })
	assertWarmedUp(t, d2)
}

// writeSnapshotPayload makes dir a data directory holding one snapshot
// with payload, followed by a WAL tail of the given records.
func writeSnapshotPayload(t *testing.T, dir string, payload []byte, records ...string) {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	seq, err := store.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteSnapshot(seq, payload); err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := store.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
}
