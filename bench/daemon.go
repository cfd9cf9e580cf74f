package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/workload"
)

type opKind int

const (
	opIngest opKind = iota
	opWhatIf
	opRecommend
	opSnapshot
	numOpKinds
)

var opPaths = [numOpKinds]string{"/ingest", "/whatif", "/recommend", "/snapshot"}
var opNames = [numOpKinds]string{"ingest", "whatif", "recommend", "snapshot"}

// recommendOp is the one /recommend the script issues, over and over.
var recommendOp = func() op {
	body, err := json.Marshal(server.RecommendOptions{BudgetFraction: budgetFraction})
	if err != nil {
		panic(err)
	}
	return op{kind: opRecommend, body: body}
}()

// op is one scripted request: the HTTP body for the handler path and
// the same arguments unpacked for a direct method call.
type op struct {
	kind       opKind
	body       []byte
	sql        string
	indexes    []*catalog.Index
	statements int  // ingest: statements in the batch
	timed      bool // false during the warm-up prefix
}

// daemonInputs is the daemon_mix problem: an in-process cophyd over a
// durable store in a fresh data directory, and the request script.
type daemonInputs struct {
	sys    system
	all    *workload.Workload // every statement of the script, for the final ground truth
	ops    []op
	hash   string
	dir    string
	store  *persist.Store
	d      *server.Daemon
	fb     *firstBound
	config server.Config
}

// daemonScript renders the request script from the seed: hom
// statements plus 10% UPDATEs in seeded order, ingested in batches of
// batchSize; after every batch whatifsPerBatch what-ifs of an
// already-ingested SELECT under two hypothetical indexes; a /recommend
// after every third batch; one /snapshot mid-script.
func daemonScript(sys system, cfg config) (all *workload.Workload, ops []op, hash string, err error) {
	sz := cfg.sizes
	all = workload.Hom(workload.HomConfig{Queries: sz.daemonQueries, UpdateFraction: 0.1, Seed: cfg.seed})
	r := rand.New(rand.NewSource(cfg.seed))
	stmts := all.Statements
	r.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })

	// Hypothetical indexes come from the candidates of the whole
	// script, picked on a table the what-if'd query reads.
	byTable := make(map[string][]*catalog.Index)
	for _, ix := range cophy.Candidates(sys.cat, all, cgenOptions) {
		byTable[ix.Table] = append(byTable[ix.Table], ix)
	}
	batches := (len(stmts) + batchSize - 1) / batchSize
	warmup := int(warmupShare*float64(batches) + 0.5)
	var selects []*workload.Query // already ingested
	h := sha256.New()
	for b := 0; b < batches; b++ {
		batch := stmts[b*batchSize : min(len(stmts), (b+1)*batchSize)]
		var sql strings.Builder
		for _, st := range batch {
			sql.WriteString(st.String())
			sql.WriteString(";\n")
			if st.Query != nil {
				selects = append(selects, st.Query)
			}
		}
		timed := b >= warmup
		body, _ := json.Marshal(map[string]any{"sql": sql.String()})
		ops = append(ops, op{kind: opIngest, body: body, sql: sql.String(), statements: len(batch), timed: timed})

		for k := 0; k < sz.whatifsPerBatch && len(selects) > 0; k++ {
			q := selects[r.Intn(len(selects))]
			var pool []*catalog.Index
			for _, t := range q.Tables {
				pool = append(pool, byTable[t]...)
			}
			if len(pool) == 0 {
				return nil, nil, "", fmt.Errorf("no candidate index on the tables of %s", q.ID)
			}
			indexes := []*catalog.Index{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]}
			specs := make([]server.IndexSpec, len(indexes))
			for i, ix := range indexes {
				specs[i] = server.IndexSpec{Table: ix.Table, Key: ix.Key, Include: ix.Include}
			}
			body, _ := json.Marshal(map[string]any{"sql": q.String(), "indexes": specs})
			ops = append(ops, op{kind: opWhatIf, body: body, sql: q.String(), indexes: indexes, timed: timed})
		}
		if b%recommendEvery == recommendEvery-1 {
			o := recommendOp
			o.timed = timed
			ops = append(ops, o)
		}
		if b == batches/2 {
			ops = append(ops, op{kind: opSnapshot, timed: timed})
		}
	}
	for _, o := range ops {
		fmt.Fprintln(h, opNames[o.kind], string(o.body))
	}
	return all, ops, fmt.Sprintf("%x", h.Sum(nil)), nil
}

func setupDaemon(cfg config) func() (*daemonInputs, error) {
	var prev *daemonInputs
	return func() (*daemonInputs, error) {
		if prev != nil { // set-up is repeated; only the last daemon is driven
			if err := prev.discard(); err != nil {
				return nil, err
			}
		}
		in := &daemonInputs{sys: newSystem(), fb: &firstBound{}}
		var err error
		if in.all, in.ops, in.hash, err = daemonScript(in.sys, cfg); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if in.dir, err = os.MkdirTemp(cfg.outDir, "cophyd-data-"); err != nil {
			return nil, err
		}
		// cophyd's defaults, with the first-bound probe as the advisor's
		// progress callback.
		opts := advisorOptions()
		opts.Progress = in.fb.progress
		in.config = server.Config{
			Catalog: in.sys.cat, Engine: in.sys.eng, Advisor: opts, CGen: cgenOptions,
			RequestTimeout: 30 * time.Second, MaxCandidates: 4096,
		}
		if err := in.open(); err != nil {
			return nil, err
		}
		prev = in
		return in, nil
	}
}

// open opens the store over the data directory and boots a daemon on
// it, recovering whatever the directory holds.
func (in *daemonInputs) open() error {
	var err error
	if in.store, err = persist.Open(in.dir, persist.Options{Sync: true}); err != nil {
		return err
	}
	in.config.Store = in.store
	in.d, err = server.New(in.config)
	return err
}

func (in *daemonInputs) discard() error {
	err := in.store.Close()
	if rmErr := os.RemoveAll(in.dir); err == nil {
		err = rmErr
	}
	return err
}

// reply is one answered request.
type reply struct {
	wall   time.Duration
	status int
	body   []byte
}

// viaHandler issues the op the way a client does, through the daemon's
// HTTP handler with an in-memory recorder (no socket).
func (in *daemonInputs) viaHandler(h http.Handler, o op) reply {
	t0 := time.Now()
	req := httptest.NewRequest(http.MethodPost, opPaths[o.kind], bytes.NewReader(o.body))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return reply{wall: time.Since(t0), status: rw.Code, body: rw.Body.Bytes()}
}

// direct calls the daemon method behind the endpoint, skipping routing,
// JSON and the tracing middleware; the trace receives the spans the
// daemon records itself.
func (in *daemonInputs) direct(o op, tr *obs.Trace) (reply, error) {
	ctx := obs.WithTrace(context.Background(), tr)
	var res any
	var err error
	t0 := time.Now()
	switch o.kind {
	case opIngest:
		res, err = in.d.Ingest(ctx, o.sql, 0)
	case opWhatIf:
		res, err = in.d.WhatIf(o.sql, o.indexes)
	case opRecommend:
		res, err = in.d.Recommend(ctx, server.RecommendOptions{BudgetFraction: budgetFraction})
	case opSnapshot:
		res, err = in.d.WriteSnapshot(ctx)
	}
	wall := time.Since(t0)
	if err != nil {
		return reply{}, fmt.Errorf("direct %s: %w", opNames[o.kind], err)
	}
	body, err := json.Marshal(res)
	return reply{wall: wall, status: http.StatusOK, body: body}, err
}

// played is what one pass of the script measured.
type played struct {
	wall     []time.Duration // per op; 0 when the request failed
	direct   []bool          // per op: issued as a direct call (traced pass only)
	bounds   samples         // first-bound delay of the timed recommends, seconds
	ratios   samples         // lower/cost of the timed recommends
	coldWall time.Duration   // the first, cold /recommend
	last     server.RecommendResult
	snapshot server.SnapshotResult
	before   server.Stats // at shutdown
	recover  time.Duration
	spans    map[string]samples // per timed direct call: "<endpoint>/<daemon span>" → seconds
	unspent  samples            // per timed direct recommend: share of wall no daemon span covers
}

// series returns the latencies in seconds of the timed requests of one
// kind that went through the handler (or, with direct set, through
// direct calls).
func (in *daemonInputs) series(p *played, kind opKind, direct bool) samples {
	var out samples
	for i, o := range in.ops {
		if o.kind == kind && o.timed && p.direct[i] == direct && p.wall[i] > 0 {
			out = append(out, p.wall[i].Seconds())
		}
	}
	return out
}

// daemonSpans are the spans the daemon records on a request's trace,
// top level and in order; lp.* nest inside solve and inum.prepare
// inside inum.
var daemonSpans = []string{"queue.wait", "candgen", "inum", "build", "solve", "wal.append"}

// play issues the script in a closed loop with one client, then shuts
// the daemon down, recovers it from the data directory and compares
// the recovered state with what was acknowledged. With a recorder,
// every other request of each kind is a direct method call under an
// obs.Trace instead of a request to the handler.
func (in *daemonInputs) play(rec *recorder, c *checks) (*played, error) {
	runtime.GC() // every pass starts from the same heap
	p := &played{
		wall: make([]time.Duration, len(in.ops)), direct: make([]bool, len(in.ops)),
		spans: make(map[string]samples),
	}
	h := in.d.Handler()
	budgetBytes := budgetFraction * float64(in.sys.cat.TotalBytes())
	var seen [numOpKinds]int
	recommends := 0
	for i, o := range in.ops {
		seen[o.kind]++
		p.direct[i] = rec != nil && seen[o.kind]%2 == 0 && o.kind != opSnapshot
		in.fb.arm()
		rec.newTrace()
		var rp reply
		if p.direct[i] {
			tr := obs.NewTrace()
			id, end := rec.start("direct."+opNames[o.kind], 0)
			var err error
			rp, err = in.direct(o, tr)
			end()
			if err != nil {
				return nil, err
			}
			var parts []aggPart
			var covered time.Duration
			for _, name := range daemonSpans {
				if d := tr.Dur(name); d > 0 {
					parts = append(parts, aggPart{name: name, dur: d, count: 1})
					covered += d
					if o.timed {
						key := opNames[o.kind] + "/" + name
						p.spans[key] = append(p.spans[key], d.Seconds())
					}
				}
			}
			rec.aggregate(id, parts)
			if o.kind == opRecommend && o.timed {
				p.unspent = append(p.unspent, 1-covered.Seconds()/rp.wall.Seconds())
			}
		} else {
			_, end := rec.start("http."+opNames[o.kind], 0)
			rp = in.viaHandler(h, o)
			end()
		}
		if !c.that(rp.status == http.StatusOK, "%s: status %d: %s", opNames[o.kind], rp.status, rp.body) {
			continue
		}
		p.wall[i] = rp.wall
		switch o.kind {
		case opIngest:
			var res server.IngestResult
			if err := json.Unmarshal(rp.body, &res); err != nil {
				return nil, err
			}
			c.that(res.Accepted == o.statements, "ingest: accepted %d of %d statements", res.Accepted, o.statements)
		case opRecommend:
			var res server.RecommendResult
			if err := json.Unmarshal(rp.body, &res); err != nil {
				return nil, err
			}
			recommends++
			if !c.that(!res.Infeasible, "recommend: infeasible") {
				continue
			}
			c.that(res.Warm == (recommends > 1), "recommend %d: warm=%v", recommends, res.Warm)
			c.that(in.fb.seen, "recommend: no progress event carried both bounds")
			c.checkBounds("recommend", res.EstCost, res.Lower, res.Gap)
			var size float64
			for _, ix := range res.Indexes {
				size += float64(ix.SizeBytes)
			}
			c.that(size <= budgetBytes*(1+1e-9), "recommend: indexes take %.0f bytes, budget %.0f", size, budgetBytes)
			if recommends == 1 {
				p.coldWall = rp.wall
			}
			if o.timed {
				p.bounds = append(p.bounds, in.fb.after.Seconds())
				p.ratios = append(p.ratios, res.Lower/res.EstCost)
			}
			p.last = res
		case opSnapshot:
			if err := json.Unmarshal(rp.body, &p.snapshot); err != nil {
				return nil, err
			}
		}
	}

	// Shut down without a final snapshot, as a kill would: recovery has
	// the mid-script snapshot and the WAL tail to replay.
	p.before = in.d.Snapshot()
	if err := in.store.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := in.open(); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	for in.d.Snapshot().Warming {
		time.Sleep(50 * time.Microsecond)
	}
	p.recover = time.Since(t0)
	after := in.d.Snapshot()
	c.that(after.Live == p.before.Live, "recovery: %d live statements, %d acknowledged", after.Live, p.before.Live)
	c.that(after.Observed == p.before.Observed, "recovery: %d observed statements, %d acknowledged", after.Observed, p.before.Observed)
	c.that(after.Ingested == p.before.Ingested, "recovery: %d ingested statements, %d acknowledged", after.Ingested, p.before.Ingested)
	rp := in.viaHandler(in.d.Handler(), recommendOp)
	if c.that(rp.status == http.StatusOK, "recommend after recovery: status %d: %s", rp.status, rp.body) {
		var res server.RecommendResult
		if err := json.Unmarshal(rp.body, &res); err != nil {
			return nil, err
		}
		c.that(res.Warm, "recommend after recovery is cold")
		c.that(res.WorkloadSize == p.before.Live, "recommend after recovery: %d statements, %d live at shutdown", res.WorkloadSize, p.before.Live)
	}
	return p, nil
}

// geomean is the geometric mean of the positive values.
func geomean(vs ...float64) float64 {
	var logs float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			logs += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

// runDaemon measures daemon_mix. The script is one fixed piece of
// work, so the run length only decides whether it is replayed on a
// fresh daemon. The traced run plays it once untraced and once traced.
func runDaemon(cfg config) (*report, error) {
	r := newReport()
	setup := setupDaemon(cfg)
	in, setups, err := timeSetups(cfg.sizes.setups, setup)
	if err != nil {
		return nil, err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	defer rss.stop()
	var plain []*played
	var peaks samples
	for p := newPacer(cfg.seconds, 1); p.more() && (!cfg.trace || p.done == 0); p.tick() {
		if p.done > 0 {
			if in, err = setup(); err != nil {
				return nil, err
			}
		}
		rss.take() // what came before this pass is not its peak
		pass, err := in.play(nil, &r.checks)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss.take())
		plain = append(plain, pass)
	}
	var rec *recorder
	var traced *played
	if cfg.trace {
		rec = newRecorder()
		if in, err = setup(); err != nil {
			return nil, err
		}
		if traced, err = in.play(rec, &r.checks); err != nil {
			return nil, err
		}
	}
	delta := memSince(&mem)
	last := plain[len(plain)-1]

	var recommended []*catalog.Index
	for _, sp := range last.last.Indexes {
		recommended = append(recommended, sp.Index())
	}
	tg := time.Now()
	improvement, err := in.sys.improvement(in.all, recommended)
	if err != nil {
		return nil, err
	}
	groundtruth := time.Since(tg)
	r.that(improvement > 0, "final recommendation: improvement %.4f is not positive", improvement)

	var series [numOpKinds]samples
	var bounds, recovers samples
	for _, p := range plain {
		for k := range series {
			series[k] = append(series[k], in.series(p, opKind(k), false)...)
		}
		bounds = append(bounds, p.bounds...)
		recovers = append(recovers, p.recover.Seconds())
	}
	recs := series[opRecommend]
	r.timing("setup_s", setups, 1)
	r.timing("recommend_p50_ms", recs, 1e3)
	r.timing("first_bound_ms", bounds, 1e3)
	r.set("bound_ratio", last.ratios.median())
	r.set("improvement", improvement)
	r.set("ops_per_s", geomean(1/series[opIngest].median(), 1/series[opWhatIf].median(), 1/recs.median(), 1/recovers.median()))
	r.spread("ingest (ms)", series[opIngest], 1e3)
	r.spread("whatif (us)", series[opWhatIf], 1e6)
	r.spread("recover (s)", recovers, 1)
	r.detail = append(r.detail, fmt.Sprintf("request script %.16s: %d requests", in.hash, len(in.ops)))
	if err := r.setRSS(rss, peaks); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := in.layerMetrics(r, cfg, rec, last, traced); err != nil {
			return nil, err
		}
		r.set("engine.groundtruth_s", groundtruth.Seconds())
		r.setMem(delta, 2*len(in.ops))
		if err := r.writeTrace(rec, cfg); err != nil {
			return nil, err
		}
	}
	return r, in.discard()
}
