// Command cophybench is a load harness for cophyd: a scripted
// ingest/whatif/recommend mix driven against a live daemon by a pool
// of concurrent clients, in either closed-loop (each client issues its
// next request as soon as the previous one answers) or fixed-rate mode
// (requests scheduled on a global clock; latency is measured from the
// scheduled start, so queueing delay is charged to the server, not
// hidden by a stalled client — the coordinated-omission discipline of
// neobench-style drivers).
//
// It reports per-endpoint p50/p95/p99 latency over successful
// responses, throughput, the shed rate (429s per recommend attempt)
// and the coalescing hit rate (the share of completed recommends
// answered from the daemon's remembered answer, read from its /stats
// delta), and judges -slo objectives against
// the measured run. It probes a live daemon over the network; the
// repository's PR-gating benchmark is `go run ./bench` (its daemon_mix
// workload drives cophyd in-process).
//
// Examples:
//
//	cophybench -addr 127.0.0.1:8080 -duration 10s
//	cophybench -addr 127.0.0.1:8080 -clients 16 -rate 200 -duration 30s \
//	    -mix whatif=8,recommend=2,ingest=1 -slo "recommend.p99<=250ms"
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// opts are the parsed flags.
type opts struct {
	base     string
	token    string
	clients  int
	rate     float64
	duration time.Duration
	timeout  time.Duration
	budget   float64
	seed     int64
	mix      []mixEntry
	// slo holds objectives evaluated against the measured run; a
	// violation fails the run (exit 1) unless sloAdvisory is set.
	slo         []obs.Objective
	sloAdvisory bool
}

// mixEntry is one endpoint's weight in the request mix.
type mixEntry struct {
	kind   string
	weight int
}

// endpointStats accumulates one endpoint's client-side measurements.
// The histogram holds successful (2xx) latencies only; failures are
// counted by class so an overloaded run cannot masquerade as a fast
// one.
type endpointStats struct {
	hist    *obs.Histogram
	ok      atomic.Int64
	shed    atomic.Int64 // 429: admission queue said no
	failed  atomic.Int64 // any other non-2xx, or transport error
	attempt atomic.Int64
}

// daemonStats is the subset of cophyd's /stats the harness reads for
// the server-side shed and coalescing deltas.
type daemonStats struct {
	Shed       int64 `json:"shed_requests"`
	Coalesced  int64 `json:"coalesced_requests"`
	Recommends int64 `json:"recommends"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "cophyd address (host:port)")
	token := flag.String("auth-token", "", "bearer token for the mutating endpoints")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	rate := flag.Float64("rate", 0, "total requests/second across all clients (0 = closed loop: each client issues back-to-back)")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	mixFlag := flag.String("mix", "whatif=8,recommend=2,ingest=1", "request mix as kind=weight pairs (kinds: ingest, whatif, recommend)")
	budget := flag.Float64("budget", 0.5, "budget_fraction sent with /recommend")
	seed := flag.Int64("seed", 1, "workload-generation seed")
	sloSpec := flag.String("slo", "", `objectives to evaluate against the measured run, e.g. "recommend.p99=250ms,shed<5%" (grammar: obs.ParseObjectives); any violation exits non-zero unless -slo-advisory`)
	sloAdvisory := flag.Bool("slo-advisory", false, "print SLO verdicts but never fail the run on them (for noisy shared runners)")
	flag.Parse()

	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	slo, err := obs.ParseObjectives(*sloSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	o := opts{
		base:        "http://" + strings.TrimPrefix(strings.TrimPrefix(*addr, "http://"), "https://"),
		token:       *token,
		clients:     *clients,
		rate:        *rate,
		duration:    *duration,
		timeout:     *timeout,
		budget:      *budget,
		seed:        *seed,
		mix:         mix,
		slo:         slo,
		sloAdvisory: *sloAdvisory,
	}
	if o.clients < 1 {
		o.clients = 1
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func parseMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, weightStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want kind=weight", part)
		}
		switch kind {
		case "ingest", "whatif", "recommend":
		default:
			return nil, fmt.Errorf("mix kind %q: want ingest, whatif or recommend", kind)
		}
		w, err := strconv.Atoi(weightStr)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix weight %q: want a non-negative integer", weightStr)
		}
		if w > 0 {
			mix = append(mix, mixEntry{kind: kind, weight: w})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("mix selects nothing")
	}
	return mix, nil
}

func run(o opts) error {
	client := &http.Client{Timeout: o.timeout}

	// Prime the daemon: /recommend against an empty stream answers 422,
	// and the first ingest also warms the INUM cache, so the measured
	// window measures serving, not cold start.
	primer := rand.New(rand.NewSource(o.seed))
	if _, _, err := post(client, o, "/ingest", ingestBody(primer)); err != nil {
		return fmt.Errorf("priming ingest: %w", err)
	}

	before, err := fetchStats(client, o)
	if err != nil {
		return fmt.Errorf("reading /stats: %w", err)
	}

	stats := map[string]*endpointStats{}
	for _, m := range o.mix {
		stats[m.kind] = &endpointStats{hist: obs.NewHistogram()}
	}
	total := 0
	for _, m := range o.mix {
		total += m.weight
	}

	start := time.Now()
	deadline := start.Add(o.duration)
	var seq atomic.Int64 // fixed-rate mode: global request sequence
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed + int64(id)*7919))
			for {
				sched := time.Now()
				if o.rate > 0 {
					// Open loop: request k is due at start + k/rate. A
					// stalled server does not slow the arrival process;
					// the wait shows up as measured latency instead.
					k := seq.Add(1) - 1
					sched = start.Add(time.Duration(float64(k) / o.rate * float64(time.Second)))
					if sched.After(deadline) {
						return
					}
					if d := time.Until(sched); d > 0 {
						time.Sleep(d)
					}
				} else if time.Now().After(deadline) {
					return
				}
				kind := pick(rng, o.mix, total)
				st := stats[kind]
				st.attempt.Add(1)
				code, _, err := issue(client, o, kind, rng)
				dur := time.Since(sched)
				switch {
				case err != nil:
					st.failed.Add(1)
				case code == http.StatusTooManyRequests:
					st.shed.Add(1)
				case code >= 200 && code < 300:
					st.ok.Add(1)
					st.hist.Observe(dur)
				default:
					st.failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	after, err := fetchStats(client, o)
	if err != nil {
		return fmt.Errorf("reading /stats: %w", err)
	}

	return report(o, stats, wall, before, after)
}

// pick draws one mix entry by weight.
func pick(rng *rand.Rand, mix []mixEntry, total int) string {
	n := rng.Intn(total)
	for _, m := range mix {
		if n -= m.weight; n < 0 {
			return m.kind
		}
	}
	return mix[len(mix)-1].kind
}

// issue sends one request of the given kind.
func issue(client *http.Client, o opts, kind string, rng *rand.Rand) (int, []byte, error) {
	switch kind {
	case "ingest":
		return post(client, o, "/ingest", ingestBody(rng))
	case "whatif":
		return post(client, o, "/whatif", whatifBody(rng))
	default:
		body := fmt.Sprintf(`{"budget_fraction": %g}`, o.budget)
		return post(client, o, "/recommend", body)
	}
}

func post(client *http.Client, o opts, path, body string) (int, []byte, error) {
	req, err := http.NewRequest("POST", o.base+path, bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.token != "" {
		req.Header.Set("Authorization", "Bearer "+o.token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, data, nil
}

func fetchStats(client *http.Client, o opts) (daemonStats, error) {
	resp, err := client.Get(o.base + "/stats")
	if err != nil {
		return daemonStats{}, err
	}
	defer resp.Body.Close()
	var st daemonStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return daemonStats{}, err
	}
	return st, nil
}

// Scripted statements in the workload parser's dialect, over the TPC-H
// schema cophyd serves. Placeholders like :0.25 are selectivities; the
// templates vary them so the live workload keeps evolving under load.

func ingestBody(rng *rand.Rand) string {
	var sts []string
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		sts = append(sts, statement(rng))
	}
	b, _ := json.Marshal(map[string]string{"sql": strings.Join(sts, ";\n")})
	return string(b)
}

func statement(rng *rand.Rand) string {
	sel := func() float64 { return 0.05 + 0.9*rng.Float64() }
	weight := 1 + rng.Intn(8)
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :%.2f AND :%.2f WEIGHT %d", sel()/2, 0.5+sel()/2, weight)
	case 1:
		return fmt.Sprintf("SELECT l_extendedprice, l_discount FROM lineitem WHERE l_shipdate BETWEEN :%.2f AND :%.2f AND l_quantity < :%.2f WEIGHT %d", sel()/2, 0.5+sel()/2, sel(), weight)
	case 2:
		return fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderdate < :%.2f WEIGHT %d", sel(), weight)
	case 3:
		return fmt.Sprintf("SELECT c_name, c_acctbal FROM customer WHERE c_mktsegment = :%.2f WEIGHT %d", sel(), weight)
	case 4:
		return fmt.Sprintf("SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem WHERE l_orderkey = o_orderkey AND o_orderdate < :%.2f GROUP BY o_orderdate WEIGHT %d", sel(), weight)
	default:
		return fmt.Sprintf("UPDATE lineitem SET l_quantity = :%.2f WHERE l_orderkey < :%.2f", sel(), sel()/2)
	}
}

func whatifBody(rng *rand.Rand) string {
	type indexSpec struct {
		Table string   `json:"table"`
		Key   []string `json:"key"`
	}
	indexes := [][]indexSpec{
		{{Table: "lineitem", Key: []string{"l_shipdate"}}},
		{{Table: "lineitem", Key: []string{"l_shipdate", "l_quantity"}}},
		{{Table: "orders", Key: []string{"o_orderdate"}}},
		{{Table: "customer", Key: []string{"c_mktsegment"}}},
		{{Table: "orders", Key: []string{"o_orderdate"}}, {Table: "lineitem", Key: []string{"l_orderkey"}}},
	}
	sel := 0.05 + 0.9*rng.Float64()
	queries := []string{
		fmt.Sprintf("SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :%.2f AND :%.2f", sel/2, 0.5+sel/2),
		fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderdate < :%.2f", sel),
		fmt.Sprintf("SELECT c_name FROM customer WHERE c_mktsegment = :%.2f", sel),
	}
	b, _ := json.Marshal(map[string]any{
		"sql":     queries[rng.Intn(len(queries))],
		"indexes": indexes[rng.Intn(len(indexes))],
	})
	return string(b)
}

// report prints the human table and the SLO verdicts. It fails
// (non-zero exit) when an endpoint with positive mix weight completed
// zero successful requests — a smoke assertion CI leans on: a run that
// measured nothing must not pass silently.
func report(o opts, stats map[string]*endpointStats, wall time.Duration, before, after daemonStats) error {
	kinds := make([]string, 0, len(stats))
	for k := range stats {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)

	var completed, shed int64
	fmt.Printf("%-10s %9s %9s %6s %6s %10s %10s %10s\n",
		"endpoint", "attempts", "ok", "429", "fail", "p50", "p95", "p99")
	for _, k := range kinds {
		st := stats[k]
		snap := st.hist.Snapshot()
		completed += st.ok.Load()
		shed += st.shed.Load()
		fmt.Printf("%-10s %9d %9d %6d %6d %10s %10s %10s\n",
			k, st.attempt.Load(), st.ok.Load(), st.shed.Load(), st.failed.Load(),
			ms(snap.Quantile(0.50)), ms(snap.Quantile(0.95)), ms(snap.Quantile(0.99)))
	}

	rps := float64(completed) / wall.Seconds()
	shedDelta := after.Shed - before.Shed
	coalesceDelta := after.Coalesced - before.Coalesced
	recDelta := after.Recommends - before.Recommends
	recAttempts := int64(0)
	if st, ok := stats["recommend"]; ok {
		recAttempts = st.attempt.Load()
	}
	shedRate, coalesceRate := 0.0, 0.0
	if recAttempts > 0 {
		shedRate = float64(shedDelta) / float64(recAttempts)
	}
	if n := coalesceDelta + recDelta; n > 0 {
		coalesceRate = float64(coalesceDelta) / float64(n)
	}
	fmt.Printf("\n%d requests in %.1fs (%.1f req/s), shed rate %.1f%% (%d server-side sheds / %d recommend attempts), coalescing hit rate %.1f%% (%d followers, %d solves)\n",
		completed, wall.Seconds(), rps, 100*shedRate, shedDelta, recAttempts, 100*coalesceRate, coalesceDelta, recDelta)

	// SLO verdicts: each declared objective judged against the measured
	// run, one stdout line per objective.
	var violated []string
	if len(o.slo) > 0 {
		fmt.Println("\nSLO verdicts:")
		for _, obj := range o.slo {
			pass, measured := judge(obj, stats, shedRate)
			verdict := "PASS"
			if !pass {
				verdict = "FAIL"
				violated = append(violated, obj.String())
			}
			fmt.Printf("  %s  %-28s measured %s\n", verdict, obj.String(), measured)
		}
	}

	for _, k := range kinds {
		if stats[k].ok.Load() == 0 {
			return fmt.Errorf("endpoint %s completed zero successful requests", k)
		}
	}
	if len(violated) > 0 && !o.sloAdvisory {
		return fmt.Errorf("SLO violated: %s", strings.Join(violated, ", "))
	}
	return nil
}

// judge evaluates one objective against the run: latency objectives
// against the endpoint's successful-request quantile, error_rate
// against failures per attempt across all endpoints (429 sheds are
// their own class, not errors), shed_rate against the server-side shed
// delta per recommend attempt — the same rate the summary line prints.
// An objective with nothing to measure (endpoint absent from the mix,
// zero samples) fails: a run that cannot support its objective must
// not pass it silently.
func judge(obj obs.Objective, stats map[string]*endpointStats, shedRate float64) (bool, string) {
	switch obj.Kind {
	case obs.KindLatency:
		st := stats[obj.Endpoint]
		if st == nil {
			return false, "nothing (endpoint not in mix)"
		}
		snap := st.hist.Snapshot()
		if snap.Count == 0 {
			return false, "nothing (no successful requests)"
		}
		got := snap.Quantile(obj.Quantile)
		return got <= obj.Limit.Nanoseconds(), ms(got)
	default:
		rate := shedRate
		if obj.Rate == "error_rate" {
			var attempts, failed int64
			for _, st := range stats {
				attempts += st.attempt.Load()
				failed += st.failed.Load()
			}
			rate = 0
			if attempts > 0 {
				rate = float64(failed) / float64(attempts)
			}
		}
		return rate <= obj.MaxRate, fmt.Sprintf("%.2f%%", 100*rate)
	}
}

// ms renders nanoseconds as milliseconds for the human table.
func ms(ns int64) string {
	return fmt.Sprintf("%.2fms", float64(ns)/1e6)
}
