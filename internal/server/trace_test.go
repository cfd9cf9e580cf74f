package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// syncBuffer is a mutex-guarded bytes.Buffer for the request log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var metricNameRE = regexp.MustCompile(`^cophyd_[a-z0-9_]+$`)

// TestHTTPTraceIDAndMetrics pins the request-tracing surface end to
// end: the response carries X-Trace-Id, /recommend echoes the same ID
// in its body, the request-log line carries it too with the span
// breakdown, and /metrics exposes the per-endpoint and per-span
// histograms the request fed, every family named by the cophyd_*
// contract.
func TestHTTPTraceIDAndMetrics(t *testing.T) {
	var logBuf syncBuffer
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	d, err := New(Config{
		Catalog:    cat,
		Engine:     engine.New(cat, engine.SystemA()),
		Advisor:    cophy.Options{GapTol: 0.02, RootIters: 160, MaxNodes: 16},
		RequestLog: slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	gen := workload.Hom(workload.HomConfig{Queries: 12, Seed: 3})
	resp := post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("/ingest response has no X-Trace-Id")
	}

	raw, _ := json.Marshal(RecommendOptions{BudgetFraction: 0.5})
	rr, err := srv.Client().Post(srv.URL+"/recommend", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	var rec RecommendResult
	if err := json.NewDecoder(rr.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	headerID := rr.Header.Get("X-Trace-Id")
	if headerID == "" || rec.TraceID != headerID {
		t.Fatalf("trace ID mismatch: header %q, body %q", headerID, rec.TraceID)
	}

	log := logBuf.String()
	if !strings.Contains(log, "trace_id="+headerID) {
		t.Fatalf("request log has no line for trace %s:\n%s", headerID, log)
	}
	if !strings.Contains(log, "spans.solve=") || !strings.Contains(log, "spans.cophy.prune=") {
		t.Fatalf("recommend log line has no solve or prune span:\n%s", log)
	}
	if rec.Dominated <= 0 || rec.Dominated >= rec.Candidates {
		t.Fatalf("/recommend reports %d of %d candidates dominated", rec.Dominated, rec.Candidates)
	}

	mr, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, _ := io.ReadAll(mr.Body)
	exposition := string(body)
	for _, want := range []string{
		`cophyd_http_request_seconds_count{endpoint="recommend"} 1`,
		`cophyd_http_requests_total{code="200",endpoint="recommend"} 1`,
		`cophyd_span_seconds_count{span="solve"} 1`,
		`cophyd_span_seconds_count{span="lp.phase2"}`,
		`cophyd_span_seconds_count{span="cophy.prune"} 1`,
		"cophyd_recommends_total 1",
		fmt.Sprintf("cophyd_ingested_statements_total %d", gen.Size()),
		`cophyd_health{state="healthy"} 1`,
	} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, exposition)
		}
	}

	// The naming contract, over every exposed family: cophyd_[a-z0-9_]+,
	// and a name ends in _total exactly when it is a counter. (One name,
	// one kind is enforced at registration: TestRegistryKindConflict.)
	families := 0
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		families++
		name, kind, _ := strings.Cut(rest, " ")
		if !metricNameRE.MatchString(name) {
			t.Errorf("metric %q is off the cophyd_[a-z0-9_]+ contract", name)
		}
		if strings.HasSuffix(name, "_total") != (kind == "counter") {
			t.Errorf("%s %s: a name ends in _total exactly when it is a counter", kind, name)
		}
	}
	if families < 27 {
		t.Errorf("/metrics exposed %d families, want all 27 the daemon registers", families)
	}

	// Single source of truth: the /stats counters are the same values.
	st := d.Snapshot()
	if st.Recommends != 1 || st.Ingested != int64(gen.Size()) {
		t.Fatalf("stats disagree with metrics: %+v", st)
	}
}

// TestTraceSpansSumToWall: a traced Recommend's top-level spans are
// disjoint sections of the same call path, so their sum must not
// exceed the call's wall time and must account for most of it; the LP
// phase spans nest inside the solve span and must not exceed it, nor
// may the dominance pass's span exceed the build span around it.
func TestTraceSpansSumToWall(t *testing.T) {
	d := testDaemon(t)
	gen := workload.Hom(workload.HomConfig{Queries: 15, Seed: 9})
	if _, err := d.Ingest(context.Background(), renderSQL(gen), 0); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	t0 := time.Now()
	if _, err := d.Recommend(ctx, RecommendOptions{BudgetFraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)

	topLevel := map[string]bool{
		"queue.wait": true, "candgen": true,
		"inum": true, "build": true, "solve": true, "wal.append": true,
	}
	var top time.Duration
	for _, sp := range tr.Spans() {
		if topLevel[sp.Name] {
			top += sp.Dur
		}
	}
	if top > wall+5*time.Millisecond {
		t.Fatalf("top-level spans sum to %v, more than the %v wall time", top, wall)
	}
	if top < wall/3 {
		t.Fatalf("top-level spans sum to %v, unaccounted majority of the %v wall time", top, wall)
	}
	for _, name := range []string{"queue.wait", "candgen", "inum", "build", "solve"} {
		if tr.Dur(name) == 0 && name != "queue.wait" {
			t.Fatalf("span %s never recorded (spans: %v)", name, tr.Spans())
		}
	}
	if lp := tr.Dur("lp.phase1") + tr.Dur("lp.phase2"); lp > tr.Dur("solve")+tr.Dur("inum")+time.Millisecond {
		t.Fatalf("LP phase spans (%v) exceed their enclosing spans", lp)
	}
	if prune := tr.Dur("cophy.prune"); prune == 0 || prune > tr.Dur("build") {
		t.Fatalf("cophy.prune span %v is missing or exceeds its enclosing build span %v", prune, tr.Dur("build"))
	}
}

// TestRememberedAnswerCarriesOwnTrace: a repeat answered from the
// remembered result carries its OWN trace ID, not the solving
// request's, and its trace shows no solver span — otherwise a fast
// remembered answer is indistinguishable from, or attributed to, the
// request that paid for the solve.
func TestRememberedAnswerCarriesOwnTrace(t *testing.T) {
	d := testDaemon(t)
	gen := workload.Hom(workload.HomConfig{Queries: 8, Seed: 3})
	if _, err := d.Ingest(context.Background(), renderSQL(gen), 0); err != nil {
		t.Fatal(err)
	}
	recommend := func() (RecommendResult, *obs.Trace) {
		t.Helper()
		tr := obs.NewTrace()
		res, err := d.Recommend(obs.WithTrace(context.Background(), tr), RecommendOptions{BudgetFraction: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		return res, tr
	}
	first, tr1 := recommend()
	second, tr2 := recommend()
	if d.coalesced.Load() != 1 {
		t.Fatalf("coalesced_requests = %d, want 1", d.coalesced.Load())
	}
	if first.TraceID != tr1.ID || second.TraceID != tr2.ID || tr1.ID == tr2.ID {
		t.Fatalf("answers carry traces %q and %q, want their own %q and %q", first.TraceID, second.TraceID, tr1.ID, tr2.ID)
	}
	if second.EstCost != first.EstCost {
		t.Fatalf("remembered answer EstCost %v, solved %v", second.EstCost, first.EstCost)
	}
	if tr1.Dur("solve") == 0 || tr2.Dur("solve") != 0 {
		t.Fatalf("solve spans %v then %v: want the first only", tr1.Dur("solve"), tr2.Dur("solve"))
	}
}
