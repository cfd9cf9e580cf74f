package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/lagrange"
	"repro/internal/persist"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// faultDaemon builds a daemon over a FaultFS-backed store so tests can
// fail the data directory out from under it, with a fast probe loop.
func faultDaemon(t *testing.T, mutate func(*Config)) (*Daemon, *persist.FaultFS) {
	t.Helper()
	ffs := persist.NewFaultFS(nil)
	store, err := persist.Open(t.TempDir(), persist.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	cfg := Config{
		Catalog:   cat,
		Engine:    engine.New(cat, engine.SystemA()),
		Advisor:   cophy.Options{GapTol: 0.02, RootIters: 160, MaxNodes: 16},
		Store:     store,
		ProbeBase: 5 * time.Millisecond,
		ProbeMax:  50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return d, ffs
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoalescedFollowersShareOneResult: a burst of K identical
// requests queued behind a busy session runs one solve; the K−1 that
// reach the slot after it get its remembered answer — zero extra solver
// runs, one shared answer, the coalesced counter telling the story.
func TestCoalescedFollowersShareOneResult(t *testing.T) {
	d := testDaemon(t)
	gen := workload.Hom(workload.HomConfig{Queries: 8, Seed: 3})
	if _, err := d.Ingest(context.Background(), renderSQL(gen), 0); err != nil {
		t.Fatal(err)
	}
	const K = 5
	solves0 := d.ad.Solves()
	d.sem <- struct{}{} // the session is busy until the whole burst is queued
	var wg sync.WaitGroup
	results := make([]RecommendResult, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = d.Recommend(context.Background(), RecommendOptions{BudgetFraction: 0.25})
		}(i)
	}
	waitFor(t, "the burst to queue", func() bool { return len(d.adm.tickets) == K })
	<-d.sem
	wg.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].EstCost != results[0].EstCost {
			t.Fatalf("caller %d got EstCost %v, caller 0 got %v: not one shared answer", i, results[i].EstCost, results[0].EstCost)
		}
	}
	if got := d.ad.Solves() - solves0; got != 1 {
		t.Fatalf("identical burst of %d ran %d solves, want 1", K, got)
	}
	if st := d.Snapshot(); st.CoalescedRequests != K-1 {
		t.Fatalf("coalesced_requests = %d, want %d", st.CoalescedRequests, K-1)
	}
}

// TestCancelledSolveNotRemembered: a solve cut short by its caller's
// cancellation answers with the context's error and leaves nothing
// behind for the next identical request, which runs its own solve.
func TestCancelledSolveNotRemembered(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel at the solver's first bound event: mid-solve, after
	// admission.
	d := testDaemonWith(t, func(c *Config) { c.Advisor.Progress = func(lagrange.Event) { cancel() } })
	gen := workload.Hom(workload.HomConfig{Queries: 8, Seed: 3})
	if _, err := d.Ingest(context.Background(), renderSQL(gen), 0); err != nil {
		t.Fatal(err)
	}
	solves0 := d.ad.Solves()
	if _, err := d.Recommend(ctx, RecommendOptions{BudgetFraction: 0.5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	if got := d.ad.Solves() - solves0; got != 1 {
		t.Fatalf("cancelled request ran %d solves, want 1 (cancelled mid-solve)", got)
	}

	res, err := d.Recommend(context.Background(), RecommendOptions{BudgetFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.ad.Solves() - solves0; got != 2 {
		t.Fatalf("retry after a cancelled solve ran %d solves in all, want 2", got)
	}
	if d.coalesced.Load() != 0 || res.EstCost <= 0 {
		t.Fatalf("retry got a remembered answer (coalesced %d, %+v)", d.coalesced.Load(), res)
	}
}

// TestRepeatRecommendRemembered: with no ingest between two
// /recommend calls, the second is the remembered answer — no solve,
// no WAL record, one coalesced request, the same indexes. An ingest in
// between makes the next call solve again.
func TestRepeatRecommendRemembered(t *testing.T) {
	d, _ := faultDaemon(t, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	gen := workload.Hom(workload.HomConfig{Queries: 10, Seed: 4})
	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)
	recommend := func() RecommendResult {
		t.Helper()
		var rec RecommendResult
		if resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &rec); resp.StatusCode != http.StatusOK {
			t.Fatalf("/recommend status %d", resp.StatusCode)
		}
		return rec
	}
	first := recommend()
	solves0, st0 := d.ad.Solves(), d.Snapshot()
	second := recommend()
	st1 := d.Snapshot()
	if got := d.ad.Solves() - solves0; got != 0 {
		t.Fatalf("repeat ran %d solves, want 0", got)
	}
	if got := st1.WALRecords - st0.WALRecords; got != 0 {
		t.Fatalf("repeat appended %d WAL records, want 0", got)
	}
	if got := st1.CoalescedRequests - st0.CoalescedRequests; got != 1 {
		t.Fatalf("repeat added %d to coalesced_requests, want 1", got)
	}
	if !reflect.DeepEqual(second.Indexes, first.Indexes) || second.EstCost != first.EstCost {
		t.Fatalf("repeat answered %+v at %v, first %+v at %v", second.Indexes, second.EstCost, first.Indexes, first.EstCost)
	}

	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(workload.Hom(workload.HomConfig{Queries: 3, Seed: 5}))}, nil)
	recommend()
	if got := d.ad.Solves() - solves0; got != 1 {
		t.Fatalf("recommend after an ingest ran %d solves, want 1", got)
	}
	if got := d.Snapshot().CoalescedRequests - st1.CoalescedRequests; got != 0 {
		t.Fatalf("recommend after an ingest was coalesced (%d)", got)
	}
}

// TestQueueShedsWhenFull: with the session busy and the queue at
// capacity, the next arrival is shed immediately with ErrOverloaded —
// not parked until its deadline.
func TestQueueShedsWhenFull(t *testing.T) {
	d := testDaemon(t)
	post1 := httptest.NewServer(d.Handler())
	defer post1.Close()
	gen := workload.Hom(workload.HomConfig{Queries: 8, Seed: 3})
	post(t, post1, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)

	d.adm = newAdmission(1, time.Minute, d.reg) // queue of one, patient waiters
	d.sem <- struct{}{}                         // the session is busy elsewhere
	defer func() { <-d.sem }()

	// Occupy the single queue slot (distinct budget → no coalescing).
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	defer cancelWaiter()
	waiting := make(chan error, 1)
	go func() {
		_, err := d.Recommend(waiterCtx, RecommendOptions{BudgetFraction: 0.3})
		waiting <- err
	}()
	waitFor(t, "first caller to queue", func() bool { return len(d.adm.tickets) == 1 })

	t0 := time.Now()
	_, err := d.Recommend(context.Background(), RecommendOptions{BudgetFraction: 0.6})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	if waited := time.Since(t0); waited > 2*time.Second {
		t.Fatalf("shed took %s — that is queueing, not shedding", waited)
	}
	if st := d.Snapshot(); st.ShedRequests != 1 || st.QueuedPeak != 1 || st.QueueDepth != 1 {
		t.Fatalf("admission counters off: %+v", st)
	}

	cancelWaiter()
	if werr := <-waiting; !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", werr)
	}
}

// TestQueueTimeoutSheds: a queued caller that cannot reach the session
// within the queue timeout is shed with ErrOverloaded, well before its
// own request deadline.
func TestQueueTimeoutSheds(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	gen := workload.Hom(workload.HomConfig{Queries: 8, Seed: 3})
	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)

	d.adm = newAdmission(4, 25*time.Millisecond, d.reg)
	d.sem <- struct{}{} // wedge the session
	defer func() { <-d.sem }()

	_, err := d.Recommend(context.Background(), RecommendOptions{BudgetFraction: 0.4})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue timeout returned %v, want ErrOverloaded", err)
	}
	if !strings.Contains(err.Error(), "queued longer") {
		t.Fatalf("timeout shed does not say so: %v", err)
	}
	if d.adm.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", d.adm.shed.Load())
	}
}

// TestBurstAcceptance is the overload acceptance pin, over real HTTP:
// a queued burst of K identical /recommend requests performs one solve
// (the rest get the remembered answer), and a distinct burst over a
// queue of one gets either valid results or 429s whose Retry-After
// header and unified JSON body are present.
func TestBurstAcceptance(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	gen := workload.Hom(workload.HomConfig{Queries: 12, Seed: 7})
	post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)

	// Phase 1 — identical burst over a queue that holds it: the first
	// to reach the session solves, the rest get its answer. The session
	// is wedged until the whole burst is queued, so all K are waiting
	// on the same generation.
	const K = 8
	d.adm = newAdmission(K, 10*time.Second, d.reg)
	solves0, coalesced0 := d.ad.Solves(), d.coalesced.Load()
	d.sem <- struct{}{}
	var wg sync.WaitGroup
	codes := make([]int, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := post(t, srv, "/recommend", RecommendOptions{BudgetFraction: 0.5}, nil)
			codes[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, "the burst to queue", func() bool { return len(d.adm.tickets) == K })
	<-d.sem
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("identical burst caller %d: status %d, want 200", i, c)
		}
	}
	if got := d.ad.Solves() - solves0; got != 1 {
		t.Fatalf("identical burst of %d ran %d solves, want 1", K, got)
	}
	if got := d.coalesced.Load() - coalesced0; got != K-1 {
		t.Fatalf("identical burst of %d coalesced %d, want %d", K, got, K-1)
	}

	// Phase 2 — distinct burst: K different budgets share no answer;
	// with a queue of one, the overflow must shed as 429 + Retry-After.
	d.adm = newAdmission(1, 10*time.Second, d.reg)
	var mu sync.Mutex
	sheds := 0
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := RecommendOptions{BudgetFraction: 0.3 + 0.05*float64(i)}
			raw, _ := json.Marshal(body)
			resp, err := srv.Client().Post(srv.URL+"/recommend", "application/json", strings.NewReader(string(raw)))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("caller %d: 429 without Retry-After", i)
					return
				}
				var eb errorBody
				if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Status != 429 || eb.RetryAfter < 1 {
					t.Errorf("caller %d: malformed 429 body: %+v (%v)", i, eb, err)
					return
				}
				mu.Lock()
				sheds++
				mu.Unlock()
			default:
				t.Errorf("caller %d: status %d, want 200 or 429", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if sheds == 0 {
		t.Fatalf("distinct burst of %d over a queue of 1 shed nothing", K)
	}
	if st := d.Snapshot(); st.ShedRequests == 0 || st.CoalescedRequests == 0 {
		t.Fatalf("burst left vacuous counters: %+v", st)
	}
}

// TestRetryAfterTracksRecentWindow pins the stale-p95 fix: Retry-After
// must follow the *recent* solves, not the lifetime histogram. A slow
// regime is recorded, then a fast regime replaces it — a lifetime
// snapshot would keep answering the slow regime's p95 forever.
func TestRetryAfterTracksRecentWindow(t *testing.T) {
	d := testDaemon(t)

	// Slow regime: five 30s solves.
	for i := 0; i < 5; i++ {
		d.adm.observe(30 * time.Second)
	}
	if got := d.adm.retryAfter(); got < 30 {
		t.Fatalf("slow-regime Retry-After %d, want ≥ 30", got)
	}

	// Time alone ages nothing out: with no newer solve the slow
	// regime is still the recent one — better than guessing 1.
	time.Sleep(150 * time.Millisecond)
	if got := d.adm.retryAfter(); got < 30 {
		t.Fatalf("empty-window fallback Retry-After %d, want lifetime ≥ 30", got)
	}

	// Fast regime: the last 16 solves all took 10ms, so Retry-After
	// must drop to the floor even though the lifetime p95 is still 30s.
	for i := 0; i < 20; i++ {
		d.adm.observe(10 * time.Millisecond)
	}
	if got := d.adm.retryAfter(); got != 1 {
		t.Fatalf("fast-regime Retry-After %d, want 1 (lifetime p95 %v must not leak)",
			got, time.Duration(d.adm.solve.Snapshot().Quantile(0.95)))
	}
}

// TestDegradedStateMachine drives the full circle: healthy → (disk
// failure during an acknowledged-write attempt) → degraded, where
// mutations are refused naming the cause and reads still serve →
// (disk heals, probe notices) → healthy, where mutations flow again.
func TestDegradedStateMachine(t *testing.T) {
	d, ffs := faultDaemon(t, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	gen := workload.Hom(workload.HomConfig{Queries: 8, Seed: 5})
	if resp := post(t, srv, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: status %d", resp.StatusCode)
	}

	// The disk dies: every write and every truncate (the repair path)
	// fails, so the next logged ingest cannot be made durable.
	ffs.Fail(persist.FaultRule{Op: persist.OpWrite})
	ffs.Fail(persist.FaultRule{Op: persist.OpTruncate})
	ffs.Fail(persist.FaultRule{Op: persist.OpOpen})
	if _, err := d.Ingest(context.Background(), "SELECT l_tax FROM lineitem WHERE l_tax > :0.5;", 0); !errors.Is(err, ErrPersist) {
		t.Fatalf("ingest on a dead disk returned %v, want ErrPersist", err)
	}

	// Degraded: state, cause, counters, and the refusal discipline.
	if state, cause := d.Health(); state != "degraded" || cause == "" {
		t.Fatalf("health after disk death: %s (%q)", state, cause)
	}
	if _, err := d.Ingest(context.Background(), "SELECT l_tax FROM lineitem WHERE l_tax > :0.5;", 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded ingest returned %v, want ErrDegraded", err)
	}
	if _, err := d.Recommend(context.Background(), RecommendOptions{}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded recommend returned %v, want ErrDegraded", err)
	}
	if _, err := d.WriteSnapshot(context.Background()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded snapshot returned %v, want ErrDegraded", err)
	}
	// Reads stay up: /whatif and /stats are exactly the degraded-mode
	// contract.
	var wi WhatIfResult
	if resp := post(t, srv, "/whatif", whatIfRequest{SQL: "SELECT l_tax FROM lineitem WHERE l_tax > :0.5;"}, &wi); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded what-if: status %d", resp.StatusCode)
	}
	st := d.Snapshot()
	if st.Health != "degraded" || st.DegradedCause == "" || st.DegradedEntries != 1 || st.DiskErrors == 0 {
		t.Fatalf("degraded stats: %+v", st)
	}
	// The HTTP surface agrees: 503 /healthz naming the state, and a
	// degraded mutation answers 503 with Retry-After and the cause.
	hr, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb struct{ Status, Cause string }
	json.NewDecoder(hr.Body).Decode(&hb)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || hb.Status != "degraded" || hb.Cause == "" {
		t.Fatalf("degraded /healthz: %d %+v", hr.StatusCode, hb)
	}
	ir, err := srv.Client().Post(srv.URL+"/ingest", "application/json", strings.NewReader(`{"sql":"SELECT l_tax FROM lineitem WHERE l_tax > :0.5;"}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	json.NewDecoder(ir.Body).Decode(&eb)
	ir.Body.Close()
	if ir.StatusCode != http.StatusServiceUnavailable || ir.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded /ingest: %d (Retry-After %q)", ir.StatusCode, ir.Header.Get("Retry-After"))
	}
	if !strings.Contains(eb.Error, "degraded") || eb.Status != 503 {
		t.Fatalf("degraded error body does not name the state: %+v", eb)
	}

	// The disk heals; the probe loop must notice and reopen for writes.
	ffs.Reset()
	waitFor(t, "probe recovery", func() bool { s, _ := d.Health(); return s == "healthy" })
	if _, err := d.Ingest(context.Background(), "SELECT l_quantity FROM lineitem WHERE l_quantity > :0.7;", 0); err != nil {
		t.Fatalf("post-recovery ingest: %v", err)
	}
	if st := d.Snapshot(); st.Health != "healthy" || st.DegradedCause != "" {
		t.Fatalf("post-recovery stats: %+v", st)
	}
}

// TestHealthzDraining: StartDraining flips /healthz to 503 "draining"
// so load balancers pull the instance before the listener closes.
func TestHealthzDraining(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	d.StartDraining()
	hr, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var hb struct{ Status string }
	json.NewDecoder(hr.Body).Decode(&hb)
	if hr.StatusCode != http.StatusServiceUnavailable || hb.Status != "draining" {
		t.Fatalf("draining /healthz: %d %+v", hr.StatusCode, hb)
	}
}
