package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func testDaemon(t *testing.T) *Daemon {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	d, err := New(Config{
		Catalog: cat,
		Engine:  eng,
		Advisor: cophy.Options{GapTol: 0.02, RootIters: 160, MaxNodes: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// renderSQL turns generated statements into the parser dialect with
// WEIGHT suffixes.
func renderSQL(w *workload.Workload) string {
	var b strings.Builder
	for _, s := range w.Statements {
		fmt.Fprintf(&b, "%s WEIGHT %g;\n", s, s.Weight)
	}
	return b.String()
}

func post(t *testing.T, srv *httptest.Server, path string, body, into any) *http.Response {
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
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return resp
}

func TestDaemonEndToEnd(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Ingest a TPC-H-style stream.
	gen := workload.Hom(workload.HomConfig{Queries: 20, UpdateFraction: 0.1, Seed: 7})
	var ing IngestResult
	resp := post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, &ing)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest status %d", resp.StatusCode)
	}
	if ing.Accepted != gen.Size() || ing.Live == 0 {
		t.Fatalf("ingest result %+v", ing)
	}

	// What-if without indexes = baseline cost.
	q := "SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :0.2 AND :0.3;"
	var plain WhatIfResult
	post(t, srv, "/whatif", whatIfRequest{SQL: q}, &plain)
	if plain.Cost <= 0 || plain.Cost != plain.BaseCost {
		t.Fatalf("baseline what-if %+v", plain)
	}
	// A covering index on the predicate column must not cost more.
	var helped WhatIfResult
	post(t, srv, "/whatif", whatIfRequest{SQL: q, Indexes: []IndexSpec{{
		Table: "lineitem", Key: []string{"l_shipdate"}, Include: []string{"l_extendedprice"},
	}}}, &helped)
	if helped.Cost > plain.Cost {
		t.Fatalf("index raised the what-if cost: %v > %v", helped.Cost, plain.Cost)
	}
	if helped.Improvement <= 0 {
		t.Fatalf("covering index should improve: %+v", helped)
	}

	// Recommend under a storage budget.
	var rec RecommendResult
	resp = post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &rec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/recommend status %d", resp.StatusCode)
	}
	if rec.Infeasible || len(rec.Indexes) == 0 {
		t.Fatalf("recommendation %+v", rec)
	}
	if rec.Warm {
		t.Fatal("first recommendation must be cold")
	}
	var total int64
	for _, sp := range rec.Indexes {
		total += sp.SizeBytes
	}
	if budget := int64(0.5 * float64(d.cat.TotalBytes())); total > budget {
		t.Fatalf("recommendation exceeds budget: %d > %d", total, budget)
	}

	// Stats reflect the traffic.
	var st Stats
	getResp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if err := json.NewDecoder(getResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.WhatIfs != 2 || st.Recommends != 1 || st.Live != ing.Live {
		t.Fatalf("stats %+v", st)
	}

	// The health and admission counters must be *present* (zero, not
	// missing) so a healthy daemon is distinguishable from one whose
	// stats never report them at all.
	raw, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var asMap map[string]any
	if err := json.NewDecoder(raw.Body).Decode(&asMap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"health", "queue_depth", "queued_peak", "shed_requests",
		"coalesced_requests", "degraded_entries", "disk_errors",
	} {
		if _, ok := asMap[key]; !ok {
			t.Fatalf("/stats missing %q: %v", key, asMap)
		}
	}
	if st.Health != "healthy" || st.ShedRequests != 0 || st.DegradedEntries != 0 {
		t.Fatalf("healthy run reported overload/degradation: %+v", st)
	}
}

// TestRecommendWarmAfterDelta is the incremental-re-optimization pin:
// after a small ingestion delta, the second /recommend must re-solve
// warm — fewer Lagrange iterations than the cold solve.
func TestRecommendWarmAfterDelta(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	gen := workload.Hom(workload.HomConfig{Queries: 30, Seed: 11})
	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)

	var cold RecommendResult
	post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.25}, &cold)
	if cold.Warm || cold.Infeasible {
		t.Fatalf("cold solve: %+v", cold)
	}
	if cold.Iters < 2 {
		t.Fatalf("cold solve trivial (%d iters); instance too easy to compare", cold.Iters)
	}

	// Small delta: a handful of fresh statements.
	delta := workload.Hom(workload.HomConfig{Queries: 3, Seed: 99})
	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(delta)}, nil)

	var warm RecommendResult
	post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.25}, &warm)
	if !warm.Warm || warm.Infeasible {
		t.Fatalf("second solve should be warm: %+v", warm)
	}
	if warm.Iters >= cold.Iters {
		t.Fatalf("warm re-solve not incremental: %d iters vs cold %d", warm.Iters, cold.Iters)
	}
	if warm.EstCost <= 0 || len(warm.Indexes) == 0 {
		t.Fatalf("warm recommendation degenerate: %+v", warm)
	}
}

// TestConcurrentWhatIf hammers the lock-free what-if path; run under
// -race it checks the daemon's sharing discipline end to end (HTTP →
// daemon → INUM shape cache).
func TestConcurrentWhatIf(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	queries := []string{
		"SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :0.2 AND :0.3;",
		"SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4;",
		"SELECT c_name FROM customer WHERE c_mktsegment = :0.3;",
		"SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem WHERE l_orderkey = o_orderkey GROUP BY o_orderdate;",
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(g+i)%len(queries)]
				var specs []IndexSpec
				if i%2 == 0 {
					specs = []IndexSpec{{Table: "lineitem", Key: []string{"l_shipdate"}}}
				}
				raw, _ := json.Marshal(whatIfRequest{SQL: q, Indexes: specs})
				resp, err := srv.Client().Post(srv.URL+"/whatif", "application/json", bytes.NewReader(raw))
				if err != nil {
					errc <- err
					return
				}
				var res WhatIfResult
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if res.Cost <= 0 {
					errc <- fmt.Errorf("non-positive what-if cost %v for %s", res.Cost, q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := d.Snapshot().WhatIfs; got != 64 {
		t.Fatalf("whatif counter = %d, want 64", got)
	}
}

// TestWhatIfRejectsEmptyKey: an index without key columns is no index;
// /whatif refuses it with 422 naming the spec instead of pricing it as
// the baseline.
func TestWhatIfRejectsEmptyKey(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	status, body := postErr(t, srv, "/whatif", whatIfRequest{
		SQL:     "SELECT l_quantity FROM lineitem WHERE l_shipdate < 100;",
		Indexes: []IndexSpec{{Table: "lineitem", Key: []string{}}},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("empty key: status %d, want 422", status)
	}
	if !strings.Contains(body["error"], "lineitem()") {
		t.Fatalf("error %q does not name the spec", body["error"])
	}
	if got := d.Snapshot().WhatIfs; got != 0 {
		t.Fatalf("rejected what-if counted: whatifs = %d", got)
	}
}

// TestWhatIfRejectsRepeatedColumn: a column repeated within the key,
// within the include list or across the two would be priced as a
// wider index; /whatif refuses each with 422 naming the spec.
func TestWhatIfRejectsRepeatedColumn(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for _, sp := range []IndexSpec{
		{Table: "lineitem", Key: []string{"l_shipdate", "l_shipdate"}, Include: []string{"l_quantity"}},
		{Table: "lineitem", Key: []string{"l_shipdate"}, Include: []string{"l_quantity", "l_quantity"}},
		{Table: "lineitem", Key: []string{"l_shipdate"}, Include: []string{"l_quantity", "l_shipdate"}},
	} {
		status, body := postErr(t, srv, "/whatif", whatIfRequest{
			SQL:     "SELECT l_quantity FROM lineitem WHERE l_shipdate < 100;",
			Indexes: []IndexSpec{sp},
		})
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", sp.Index().ID(), status)
		}
		if !strings.Contains(body["error"], sp.Index().ID()) {
			t.Fatalf("error %q does not name the spec %s", body["error"], sp.Index().ID())
		}
	}
	if got := d.Snapshot().WhatIfs; got != 0 {
		t.Fatalf("rejected what-ifs counted: whatifs = %d", got)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Malformed JSON.
	resp, err := srv.Client().Post(srv.URL+"/ingest", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
	// Unparseable SQL.
	if resp := post(t, srv, "/ingest", ingestRequest{SQL: "DELETE FROM lineitem;"}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad SQL: status %d", resp.StatusCode)
	}
	// Recommend before any ingestion.
	if resp := post(t, srv, "/recommend", RecommendOptions{}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty recommend: status %d", resp.StatusCode)
	}
	// What-if with several statements.
	if resp := post(t, srv, "/whatif", whatIfRequest{SQL: "SELECT l_quantity FROM lineitem; SELECT o_totalprice FROM orders;"}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("multi-statement whatif: status %d", resp.StatusCode)
	}
	// What-if with an index on an unknown column.
	if resp := post(t, srv, "/whatif", whatIfRequest{
		SQL:     "SELECT l_quantity FROM lineitem;",
		Indexes: []IndexSpec{{Table: "lineitem", Key: []string{"nope"}}},
	}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad index: status %d", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := srv.Client().Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: status %d", getResp.StatusCode)
	}
}

// TestUnplannableFromListNeverLogged: a statement the optimizer cannot
// plan — a FROM list past workload.MaxTables, or one naming a table
// twice — is refused at /ingest and /whatif with 422 before the WAL
// sees it. Accepting one would fail every later /recommend of the
// stream it joined (and every recovery that replays it) with "no
// templates".
func TestUnplannableFromListNeverLogged(t *testing.T) {
	d := durableDaemon(t, t.TempDir(), nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	good := renderSQL(workload.Hom(workload.HomConfig{Queries: 10, Seed: 5}))
	if resp := post(t, srv, "/ingest", ingestRequest{SQL: good}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("good ingest: status %d", resp.StatusCode)
	}
	records := d.Snapshot().WALRecords
	for _, bad := range []string{
		"SELECT r_name FROM region" + strings.Repeat(", nation", workload.MaxTables) + ";",
		"SELECT n_name FROM nation, nation;",
	} {
		if resp := post(t, srv, "/ingest", ingestRequest{SQL: bad}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("ingest %q: status %d, want 422", bad, resp.StatusCode)
		}
		if resp := post(t, srv, "/whatif", whatIfRequest{SQL: bad}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("whatif %q: status %d, want 422", bad, resp.StatusCode)
		}
	}
	if got := d.Snapshot().WALRecords; got != records {
		t.Fatalf("refused statements wrote %d WAL records", got-records)
	}
	if resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend after refused ingests: status %d", resp.StatusCode)
	}
}

// TestWhatIfMatchesInumDirect pins the HTTP what-if to the INUM cost
// the advisor itself would compute.
func TestWhatIfMatchesInumDirect(t *testing.T) {
	d := testDaemon(t)
	sql := "SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4;"
	ix := &catalog.Index{Table: "orders", Key: []string{"o_orderdate"}, Include: []string{"o_totalprice"}}
	got, err := d.WhatIf(sql, []*catalog.Index{ix})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Parse(d.cat, sql)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.NewConfig(tpch.BaselineIndexes(d.cat)...)
	cfg.Add(ix)
	s := w.Statements[0]
	s.Query.ID = "direct-probe"
	want, err := d.ad.Inum.StatementCost(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want {
		t.Fatalf("what-if cost %v, direct INUM cost %v", got.Cost, want)
	}
}
