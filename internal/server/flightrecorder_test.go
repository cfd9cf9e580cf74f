package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestFlightRecorderEndpoint covers /debug/traces end to end: the
// slowest request per endpoint is retained with a span breakdown whose
// durations sum to (at most, and most of) its wall time, a shed
// request is retained as an event, and the endpoint is guarded by the
// bearer token.
func TestFlightRecorderEndpoint(t *testing.T) {
	const token = "flight-secret"
	d := testDaemonWith(t, func(c *Config) {
		c.AuthToken = token
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	gen := workload.Hom(workload.HomConfig{Queries: 12, Seed: 9})
	if code, _ := authedPost(t, srv, "/ingest", token, ingestRequest{SQL: renderSQL(gen)}); code != http.StatusOK {
		t.Fatalf("/ingest status %d", code)
	}
	if code, _ := authedPost(t, srv, "/recommend", token, RecommendOptions{BudgetFraction: 0.5}); code != http.StatusOK {
		t.Fatalf("/recommend status %d", code)
	}
	// An unauthorized mutation is a 401 — not a flight event (it is
	// neither shed nor 5xx), but it must still be measured.
	if code, _ := authedPost(t, srv, "/recommend", "wrong-token", RecommendOptions{}); code != http.StatusUnauthorized {
		t.Fatal("bad token accepted")
	}

	// The recorder itself is guarded.
	resp, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("/debug/traces without token: %d, want 401", resp.StatusCode)
	}

	req, _ := http.NewRequest("GET", srv.URL+"/debug/traces", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	var dump obs.FlightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	recs := dump.Slowest["recommend"]
	if len(recs) == 0 {
		t.Fatalf("no recommend entries retained: %+v", dump.Slowest)
	}
	slowest := recs[0]
	if slowest.TraceID == "" || slowest.Status != http.StatusOK || slowest.Millis <= 0 {
		t.Fatalf("slowest entry malformed: %+v", slowest)
	}
	if len(slowest.Spans) == 0 {
		t.Fatalf("slowest entry has no span breakdown: %+v", slowest)
	}
	var spanSum float64
	hasSolve := false
	for _, sp := range slowest.Spans {
		spanSum += sp.Millis
		if sp.Name == "solve" {
			hasSolve = true
		}
	}
	if !hasSolve {
		t.Fatalf("recommend trace lost its solve span: %+v", slowest.Spans)
	}
	// The spans nest inside the request: their sum accounts for the
	// wall time without exceeding it (lp.* spans nest inside solve, so
	// allow 2× headroom upward; downward, the solve dominates the wall).
	if spanSum <= 0 || spanSum > 2*slowest.Millis {
		t.Fatalf("span sum %.3fms inconsistent with wall %.3fms", spanSum, slowest.Millis)
	}
}
