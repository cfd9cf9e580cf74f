package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func testDaemonWith(t *testing.T, mutate func(*Config)) *Daemon {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	cfg := Config{
		Catalog: cat,
		Engine:  eng,
		Advisor: cophy.Options{GapTol: 0.02, RootIters: 160, MaxNodes: 16},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCacheEvictOnStatementDrop: when stream decay evicts a statement,
// the session's compiled state for it goes with the next re-solve — the
// daemon's per-statement footprint tracks the live workload, not its
// full history.
func TestCacheEvictOnStatementDrop(t *testing.T) {
	d := testDaemonWith(t, func(c *Config) {
		c.HalfLife = 1 // aggressive decay: one tick halves every weight
		c.MinWeight = 0.4
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Ingest an initial batch and force the cache to be populated.
	gen := workload.Hom(workload.HomConfig{Queries: 8, Seed: 11})
	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)
	var rec RecommendResult
	if resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("/recommend status %d", resp.StatusCode)
	}
	before, _, _ := cophy.CompiledForTest(d.session)
	if before == 0 {
		t.Fatal("recommend left no compiled slabs")
	}

	// Keep one statement alive; everything else decays below MinWeight
	// after a few ticks and must take its cache entries along.
	keep := workload.Hom(workload.HomConfig{Queries: 1, Seed: 99})
	for i := 0; i < 6; i++ {
		post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(keep), WeightScale: 100}, nil)
	}
	if live := d.stream.Len(); live >= before {
		t.Fatalf("stream did not shrink: %d live statements, %d before eviction", live, before)
	}

	// A fresh recommendation over the survivors still works.
	if resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("/recommend after eviction: status %d", resp.StatusCode)
	}

	// The session's compiled problem obeys the same bound: the first
	// recommend compiled every statement, and after the re-solve nothing
	// is left for a statement the stream evicted — no slab entry, and no
	// choice set beyond one per live shape class's slab.
	distinct := map[string]bool{}
	for _, st := range d.stream.Snapshot().Queries() {
		distinct[st.Query.ID] = true
	}
	if queries, slabs, choices := cophy.CompiledForTest(d.session); queries != len(distinct) || slabs > queries || choices != slabs || queries >= before {
		t.Fatalf("session holds slabs for %d statements (%d distinct) and %d choice sets for %d live queries (%d before eviction)", queries, slabs, choices, len(distinct), before)
	}
}

// postErr posts and returns the status code plus the decoded unified
// JSON error body (the shared post helper closes the body on non-200).
func postErr(t *testing.T, srv *httptest.Server, path string, body any) (int, map[string]string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded errorBody
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("%s: error body not JSON: %v", path, err)
	}
	if decoded.Status != resp.StatusCode {
		t.Fatalf("%s: body status %d != HTTP status %d", path, decoded.Status, resp.StatusCode)
	}
	return resp.StatusCode, map[string]string{"error": decoded.Error}
}

// TestRecommendTooManyCandidates: a candidate set beyond the cap is
// 413 with a JSON error body, before any solver work.
func TestRecommendTooManyCandidates(t *testing.T) {
	d := testDaemonWith(t, func(c *Config) { c.MaxCandidates = 2 })
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	gen := workload.Hom(workload.HomConfig{Queries: 12, Seed: 5})
	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)
	status, body := postErr(t, srv, "/recommend", RecommendOptions{})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", status)
	}
	if body["error"] == "" {
		t.Fatalf("413 body carries no error: %v", body)
	}
	if d.Snapshot().Recommends != 0 {
		t.Fatal("rejected request counted as a recommendation")
	}
}

// TestRecommendCompactsInsteadOfWedging: when the live workload shifts
// so far that the session's earlier candidates are mostly dead, the next
// recommendation drops them — warm, multipliers carried by block label —
// so the session holds exactly the live candidate set and never wedges
// on the cap.
func TestRecommendCompactsInsteadOfWedging(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	wA := workload.Het(workload.HetConfig{Queries: 8, Seed: 5})
	wB := workload.Hom(workload.HomConfig{Queries: 6, Seed: 21})
	cgen := cophy.CGenOptions{Covering: true}
	sizeOf := func(ws ...*workload.Workload) int {
		seen := map[string]bool{}
		for _, w := range ws {
			for _, ix := range cophy.Candidates(cat, w, cgen) {
				seen[ix.ID()] = true
			}
		}
		return len(seen)
	}
	sizeA, sizeB, union := sizeOf(wA), sizeOf(wB), sizeOf(wA, wB)
	cap := sizeA // each mix must fit on its own, the union must not
	if sizeB > cap {
		cap = sizeB
	}
	if union <= cap {
		t.Skip("workload mixes share all candidates; cannot exercise the drop")
	}

	d := testDaemonWith(t, func(c *Config) {
		c.HalfLife = 1
		c.MinWeight = 0.4
		c.MaxCandidates = cap
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(wA)}, nil)
	var first RecommendResult
	if resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("first recommend: status %d", resp.StatusCode)
	}
	// Decay mix A out while mix B becomes the live workload.
	for i := 0; i < 6; i++ {
		post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(wB), WeightScale: 100}, nil)
	}
	var second RecommendResult
	resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &second)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend after mix shift: status %d, want 200", resp.StatusCode)
	}
	if !second.Warm {
		t.Fatal("solve after dropping candidates should stay warm (multipliers carried by block label)")
	}
	assertHoldsLive(t, d)
	if st := d.Snapshot(); st.SessionCompactions == 0 {
		t.Fatal("compaction counter never moved")
	}
}

// TestRecommendTrimsPaddedSession: a session padded with candidates no
// live statement generates is trimmed to the live set by the next
// recommendation, which stays warm; there is no cold rebase.
func TestRecommendTrimsPaddedSession(t *testing.T) {
	d := testDaemonWith(t, func(c *Config) { c.MaxCandidates = 4096 })
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	gen := workload.Hom(workload.HomConfig{Queries: 6, Seed: 8})
	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)
	if resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first recommend: status %d", resp.StatusCode)
	}

	// Pad the warm session past the cap with junk candidates.
	pad := cophy.RandomIndexes(d.cat, d.maxCandidates+8, 3)
	d.session.AddCandidates(pad)
	if len(d.session.Candidates()) <= d.maxCandidates {
		t.Fatalf("fixture session holds only %d candidates", len(d.session.Candidates()))
	}

	var rec RecommendResult
	if resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.3}, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend over padded session: status %d, want 200", resp.StatusCode)
	}
	if !rec.Warm {
		t.Fatal("trimmed solve should stay warm")
	}
	assertHoldsLive(t, d)
	if st := d.Snapshot(); st.SessionRebases != 0 || st.SessionCompactions != 1 {
		t.Fatalf("session_rebases = %d, session_compactions = %d; want 0 and 1", st.SessionRebases, st.SessionCompactions)
	}
}

// assertHoldsLive fails unless the daemon's session holds exactly the
// candidates the live workload generates.
func assertHoldsLive(t *testing.T, d *Daemon) {
	t.Helper()
	ids := func(ixs []*catalog.Index) []string {
		out := make([]string, len(ixs))
		for i, ix := range ixs {
			out[i] = ix.ID()
		}
		slices.Sort(out)
		return out
	}
	got, want := ids(d.session.Candidates()), ids(cophy.Candidates(d.cat, d.stream.Snapshot(), d.cgen))
	if !slices.Equal(got, want) {
		t.Fatalf("session holds %d candidates, the live set is %d", len(got), len(want))
	}
}

// TestRecommendTimeout503: an expired request deadline answers 503 and
// leaves the daemon healthy for the next caller.
func TestRecommendTimeout503(t *testing.T) {
	d := testDaemonWith(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	gen := workload.Hom(workload.HomConfig{Queries: 6, Seed: 8})
	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)
	status, body := postErr(t, srv, "/recommend", RecommendOptions{})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if body["error"] == "" {
		t.Fatalf("503 body carries no error: %v", body)
	}

	// The session must not have retained the aborted solve.
	if d.session != nil && d.session.Warm() {
		t.Fatal("aborted solve warmed the session")
	}
}

// TestRecommendCancelledWhileLocked: a caller whose context dies while
// another recommendation holds the session gives up with a context
// error instead of queueing on the semaphore.
func TestRecommendCancelledWhileLocked(t *testing.T) {
	d := testDaemonWith(t, nil)
	gen := workload.Hom(workload.HomConfig{Queries: 4, Seed: 2})
	w, err := workload.Parse(d.cat, renderSQL(gen))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.Statements {
		d.stream.Observe(s)
	}

	d.sem <- struct{}{} // simulate a long-running recommendation
	defer func() { <-d.sem }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := d.Recommend(ctx, RecommendOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || ctx.Err() == nil {
			t.Fatalf("want context error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request blocked on the session lock")
	}
}

// authedPost posts with an optional bearer token and returns status +
// decoded JSON body.
func authedPost(t *testing.T, srv *httptest.Server, path, token string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("%s: body not JSON: %v", path, err)
	}
	return resp.StatusCode, decoded
}

// TestAuthTokenGuardsMutatingEndpoints: with -auth-token set, /ingest,
// /recommend and /snapshot demand the bearer token (401 JSON
// otherwise), while the read-only endpoints stay open.
func TestAuthTokenGuardsMutatingEndpoints(t *testing.T) {
	d := testDaemonWith(t, func(c *Config) { c.AuthToken = "s3cret" })
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	gen := workload.Hom(workload.HomConfig{Queries: 4, Seed: 2})
	body := ingestRequest{SQL: renderSQL(gen)}

	for _, tc := range []struct {
		path  string
		body  any
		token string
		want  int
	}{
		{"/ingest", body, "", http.StatusUnauthorized},
		{"/ingest", body, "wrong", http.StatusUnauthorized},
		{"/ingest", body, "s3cret", http.StatusOK},
		{"/recommend", RecommendOptions{BudgetFraction: 0.5}, "", http.StatusUnauthorized},
		{"/recommend", RecommendOptions{BudgetFraction: 0.5}, "s3cret", http.StatusOK},
		{"/snapshot", struct{}{}, "", http.StatusUnauthorized},
		// /snapshot with the right token still fails 422-free: no data
		// dir is configured, which is the daemon's problem to report,
		// not an auth outcome.
	} {
		status, decoded := authedPost(t, srv, tc.path, tc.token, tc.body)
		if status != tc.want {
			t.Fatalf("%s token=%q: status %d, want %d", tc.path, tc.token, status, tc.want)
		}
		if status == http.StatusUnauthorized {
			if msg, _ := decoded["error"].(string); msg == "" {
				t.Fatalf("%s: 401 without a JSON error body: %v", tc.path, decoded)
			}
			// An unauthorized mutation must not have mutated.
			if d.Snapshot().Ingested != 0 && tc.path == "/ingest" && tc.token != "s3cret" {
				t.Fatal("unauthorized ingest was applied")
			}
		}
	}

	// Read-only endpoints stay open without a token.
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats without token: status %d", resp.StatusCode)
	}
	status, _ := authedPost(t, srv, "/whatif", "", whatIfRequest{SQL: "SELECT l_quantity FROM lineitem;"})
	if status != http.StatusOK {
		t.Fatalf("/whatif without token: status %d", status)
	}
}

// TestAuthDisabledByDefault: with no token configured nothing demands
// authorization — the pre-auth behavior is unchanged.
func TestAuthDisabledByDefault(t *testing.T) {
	d := testDaemonWith(t, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	gen := workload.Hom(workload.HomConfig{Queries: 2, Seed: 2})
	if status, _ := authedPost(t, srv, "/ingest", "", ingestRequest{SQL: renderSQL(gen)}); status != http.StatusOK {
		t.Fatalf("tokenless daemon rejected ingest: %d", status)
	}
}
