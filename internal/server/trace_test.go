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
	// One objective, so the cophyd_slo_* families are registered too
	// and the scrape below sees every family the daemon has.
	slo, err := obs.ParseObjectives("recommend.p99<=250ms")
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Catalog:    cat,
		Engine:     engine.New(cat, engine.SystemA()),
		Advisor:    cophy.Options{GapTol: 0.02, RootIters: 160, MaxNodes: 16},
		RequestLog: slog.New(slog.NewTextHandler(&logBuf, nil)),
		SLO:        slo,
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
	if !strings.Contains(log, "spans.solve=") {
		t.Fatalf("recommend log line has no solve span:\n%s", log)
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
	if families < 30 {
		t.Errorf("/metrics exposed %d families, want all 30 the daemon registers", families)
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
// phase spans nest inside the solve span and must not exceed it.
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
		"queue.wait": true, "coalesce.wait": true, "candgen": true,
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
}

// TestCoalesceFollowerTrace: a coalesced follower spends its time in
// the coalesce.wait span and answers with its OWN trace ID, not the
// leader's — otherwise a slow shared solve is unattributable from the
// follower's side.
func TestCoalesceFollowerTrace(t *testing.T) {
	d := testDaemon(t)
	key := fmt.Sprintf("%d|%v", d.stream.Generation(), 0.25)
	f := &flight{done: make(chan struct{})}
	d.flMu.Lock()
	d.flights[key] = f
	d.flMu.Unlock()

	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	var res RecommendResult
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, rerr = d.Recommend(ctx, RecommendOptions{BudgetFraction: 0.25})
	}()
	waitFor(t, "follower to coalesce", func() bool { return d.coalesced.Load() == 1 })
	time.Sleep(20 * time.Millisecond) // measurable leader wait

	f.res = RecommendResult{EstCost: 7, TraceID: "leader-trace"}
	d.flMu.Lock()
	delete(d.flights, key)
	d.flMu.Unlock()
	close(f.done)
	<-done

	if rerr != nil {
		t.Fatal(rerr)
	}
	if res.TraceID != tr.ID {
		t.Fatalf("follower answered with trace %q, want its own %q", res.TraceID, tr.ID)
	}
	if w := tr.Dur("coalesce.wait"); w < 15*time.Millisecond {
		t.Fatalf("coalesce.wait span %v does not cover the leader wait", w)
	}
}
