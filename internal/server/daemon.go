// Package server implements cophyd, the online advisor daemon: a
// long-running, concurrent service over one CoPhy advisor. Statements
// arrive as a stream and are folded into a live workload with
// exponential decay (workload.Stream); what-if costings are answered
// straight from the INUM shape cache with no daemon-wide lock; and
// recommendations run through one persistent cophy.Session whose
// block-labeled dual warm starts make each re-solve after a small
// ingestion delta incremental rather than from-scratch — the
// interactive-tuning economics of §4.2 turned into a service.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/workload"
)

// ErrTooManyCandidates is returned (wrapped) by Recommend when the
// candidate set the request would solve over exceeds the configured
// cap; the HTTP layer maps it to 413.
var ErrTooManyCandidates = errors.New("candidate set exceeds the configured cap")

// Config assembles a daemon.
type Config struct {
	// Catalog and Engine are the tuned system. Both are treated as
	// immutable for the daemon's lifetime.
	Catalog *catalog.Catalog
	Engine  *engine.Engine
	// Advisor tunes the solver (gap tolerance, iteration caps).
	Advisor cophy.Options
	// CGen tunes candidate generation for recommendations.
	CGen cophy.CGenOptions
	// HalfLife is the ingestion decay half-life, measured in ingest
	// batches (each /ingest call ticks the decay clock once). Zero
	// means 64 batches; negative disables decay.
	HalfLife float64
	// MinWeight is the eviction threshold for decayed statements
	// (default 1e-3).
	MinWeight float64
	// RequestTimeout bounds each recommendation request: the handler
	// derives a context deadline from it, and the session solve stops
	// when that context is done. Zero means unbounded.
	RequestTimeout time.Duration
	// MaxCandidates caps the candidate set a /recommend request may
	// solve over: the live workload's candidates, which are all the
	// session holds. Zero means uncapped. Exceeding it answers 413.
	MaxCandidates int
	// MaxQueue bounds how many /recommend requests may wait for the
	// session at once; arrivals beyond it are shed immediately with 429
	// and a Retry-After derived from observed solve latency. Zero means
	// 16.
	MaxQueue int
	// QueueTimeout bounds how long an admitted request may wait in the
	// queue before it too is shed with 429. Zero means 2s.
	QueueTimeout time.Duration
	// ProbeBase / ProbeMax bound the exponential backoff of the
	// degraded-mode re-probe loop (how quickly a daemon whose data
	// directory failed retries it). Zero means 500ms / 15s. Exposed
	// mainly so tests can run the state machine at full speed.
	ProbeBase, ProbeMax time.Duration
	// Store, when non-nil, is the durability layer: accepted ingest
	// batches and session changes are logged to its WAL, snapshots
	// capture full state, and New recovers from it before serving —
	// statements, weights, clocks, and a warm first solve all survive a
	// restart. The daemon owns the store's record schema; the caller
	// owns its lifetime (Close after shutdown flush).
	Store *persist.Store
	// AuthToken, when non-empty, requires `Authorization: Bearer
	// <token>` on the mutating endpoints (/ingest, /recommend,
	// /snapshot); a mismatch answers 401. Read-only endpoints stay
	// open.
	AuthToken string
	// RequestLog, when non-nil, receives one structured line per HTTP
	// request: trace ID, endpoint, status, wall time and the span
	// breakdown (queue wait, solver phases, WAL append). Nil disables
	// request logging; metrics are recorded either way.
	RequestLog *slog.Logger
}

// The flight recorder retains the flightKeep slowest requests per
// endpoint and the last flightEvents shed/error requests.
const flightKeep, flightEvents = 8, 64

// Daemon is the service core. All exported methods are safe for
// concurrent use: WhatIf takes no daemon lock (only the INUM cache's),
// Ingest serializes only on the stream's own mutex, and Recommend
// serializes recommendations on the session semaphore behind a bounded
// admission queue — a repeat of the last answered question gets the
// remembered answer, excess load is shed with ErrOverloaded instead of
// queueing without bound, and a caller whose context dies gives up
// immediately wherever it is waiting. Durability failures flip the
// daemon into a degraded read-only state (see health.go) instead of
// killing it.
type Daemon struct {
	cat           *catalog.Catalog
	eng           *engine.Engine
	ad            *cophy.Advisor
	cgen          cophy.CGenOptions
	stream        *workload.Stream
	baseline      *engine.Config
	reqTimeout    time.Duration
	maxCandidates int
	authToken     string

	// sem (capacity 1) guards the session and the fields after it.
	// lastBudget is the budget knob of the most recent recommendation,
	// persisted with the session state; last is that recommendation's
	// answer and lastGen the stream generation it answered. adm is the
	// bounded admission queue in front of sem.
	sem        chan struct{}
	adm        *admission
	session    *cophy.Session
	lastBudget float64
	last       *RecommendResult
	lastGen    int64

	// health is the serving state machine (healthy/degraded/draining);
	// degradedCause names the durability failure that forced read-only
	// mode; probeBase/probeMax bound the recovery probe backoff.
	health          atomic.Int32
	degradedCause   atomic.Pointer[string]
	degradedEntries *obs.Counter
	probeBase       time.Duration
	probeMax        time.Duration

	// store is the durability layer (nil = memory-only). pMu orders
	// additive WAL records against the snapshot cut: Ingest holds it
	// across apply+append so a batch is atomic in the log exactly as it
	// is in memory, and WriteSnapshot holds it across rotate+export so
	// no acknowledged batch can be both inside the snapshot and in the
	// surviving tail. snapMu serializes whole snapshots.
	store  *persist.Store
	pMu    sync.Mutex
	snapMu sync.Mutex
	// recMu guards recovery: the background warming phase fills in its
	// wall time after the daemon is already serving /stats.
	recMu    sync.Mutex
	recovery RecoveryStats
	// warming is true from recovery until the background re-prepare of
	// the recovered statements completes; surfaced in /healthz and
	// /stats (the daemon serves — possibly colder — throughout).
	warming atomic.Bool

	// reg is the metric registry behind /metrics; the counters below are
	// its registered series (see metrics.go), shared verbatim with the
	// /stats snapshot. degradedEntries lives above with the health state.
	reg    *obs.Registry
	reqLog *slog.Logger

	// flight retains the traces worth keeping — slowest per endpoint
	// plus every shed/error — for GET /debug/traces. Always non-nil.
	flight *obs.FlightRecorder

	ingested      *obs.Counter
	coalesced     *obs.Counter
	whatifs       *obs.Counter
	recommends    *obs.Counter
	compactions   *obs.Counter
	walRecords    *obs.Counter
	snapshots     *obs.Counter
	persistErrors *obs.Counter
}

// New builds a daemon over the given system. It is the no-ctx
// convenience form of NewCtx; a caller with a boot context (cophyd
// threads its signal-aware one, so a SIGTERM can abort a long WAL
// replay) should use NewCtx directly.
func New(cfg Config) (*Daemon, error) {
	return NewCtx(context.Background(), cfg)
}

// NewCtx builds a daemon over the given system. ctx bounds the boot
// work — in particular the WAL replay of recovery, which re-ingests
// every logged batch through the live code path and can run long after
// a crash mid-traffic.
func NewCtx(ctx context.Context, cfg Config) (*Daemon, error) {
	if cfg.Catalog == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("server: Catalog and Engine are required")
	}
	halfLife := cfg.HalfLife
	if halfLife == 0 {
		halfLife = 64
	}
	if halfLife < 0 {
		halfLife = 0 // no decay
	}
	if cfg.CGen.MaxKeyCols == 0 && !cfg.CGen.Covering && cfg.CGen.DBA == nil {
		cfg.CGen = cophy.CGenOptions{Covering: true} // untuned: defaults
	}
	reg := obs.NewRegistry()
	d := &Daemon{
		cat:           cfg.Catalog,
		eng:           cfg.Engine,
		ad:            cophy.NewAdvisor(cfg.Catalog, cfg.Engine, cfg.Advisor),
		cgen:          cfg.CGen,
		stream:        workload.NewStream(workload.StreamConfig{HalfLife: halfLife, MinWeight: cfg.MinWeight}),
		baseline:      engine.NewConfig(cfg.Catalog.PrimaryKeyIndexes()...),
		reqTimeout:    cfg.RequestTimeout,
		maxCandidates: cfg.MaxCandidates,
		authToken:     cfg.AuthToken,
		sem:           make(chan struct{}, 1),
		adm:           newAdmission(cfg.MaxQueue, cfg.QueueTimeout, reg),
		probeBase:     cfg.ProbeBase,
		probeMax:      cfg.ProbeMax,
		reqLog:        cfg.RequestLog,
		flight:        obs.NewFlightRecorder(flightKeep, flightEvents),
	}
	d.registerMetrics(reg)
	if d.probeBase <= 0 {
		d.probeBase = 500 * time.Millisecond
	}
	if d.probeMax < d.probeBase {
		d.probeMax = 15 * time.Second
		if d.probeMax < d.probeBase {
			d.probeMax = d.probeBase
		}
	}
	// Warm restart: rebuild the stream, counters, INUM cache and
	// session warm state from the data directory before serving.
	if cfg.Store != nil {
		d.store = cfg.Store
		if err := d.recover(ctx); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// IngestResult reports one ingestion batch.
type IngestResult struct {
	// Accepted is the number of statements folded into the stream.
	Accepted int `json:"accepted"`
	// Live is the distinct-statement count of the live workload.
	Live int `json:"live"`
	// Observed is the lifetime statement count.
	Observed int64 `json:"observed"`
}

// Ingest parses a batch of SQL-ish statements and folds them into the
// live workload. weightScale, when positive, multiplies every parsed
// statement weight (a cheap way to replay traces with importance).
// Each batch advances the decay clock by one tick. With a store
// configured, every accepted batch is logged to the WAL before the
// call returns, so a restart replays it deterministically — same
// statements, same IDs, same decay and evictions. While the daemon is
// degraded (durable writes failing) the batch is refused outright:
// accepting state that cannot be logged would silently break the
// restart contract.
func (d *Daemon) Ingest(ctx context.Context, sql string, weightScale float64) (IngestResult, error) {
	if err := d.checkWritable(); err != nil {
		return IngestResult{}, err
	}
	return d.applyIngest(ctx, sql, weightScale, d.store != nil)
}

// applyIngest is Ingest's body; recovery replays WAL records through
// it with record=false. The persistence mutex makes each batch atomic
// in the log exactly as it is in memory: batches serialize against
// each other and against the snapshot cut, so replay reproduces the
// live application order. The record is appended *before* the batch
// is applied (log-before-apply): a failed append rejects the batch
// untouched — a client retry then applies it once, not twice — and a
// crash between append and apply merely replays a record whose effects
// never happened.
func (d *Daemon) applyIngest(ctx context.Context, sql string, weightScale float64, record bool) (IngestResult, error) {
	w, err := workload.Parse(d.cat, sql)
	if err != nil {
		return IngestResult{}, err
	}
	d.pMu.Lock()
	if record {
		if err := d.appendWAL(ctx, walRecord{Type: "ingest", SQL: sql, Scale: weightScale}); err != nil {
			d.pMu.Unlock()
			return IngestResult{}, err
		}
	}
	for _, s := range w.Statements {
		if weightScale > 0 {
			s.Weight *= weightScale
		}
		d.stream.Observe(s)
	}
	d.stream.Tick()
	// Still under pMu: a snapshot cut between the stream mutation and
	// this add would otherwise persist an undercounted ingested stat
	// that recovery makes permanent.
	d.ingested.Add(int64(w.Size()))
	d.pMu.Unlock()
	return IngestResult{
		Accepted: w.Size(),
		Live:     d.stream.Len(),
		Observed: d.stream.Observed(),
	}, nil
}

// WhatIfResult is one hypothetical costing.
type WhatIfResult struct {
	// Cost is the INUM cost of the statement under the hypothetical
	// configuration (baseline ∪ requested indexes).
	Cost float64 `json:"cost"`
	// BaseCost is the cost under the baseline configuration alone.
	BaseCost float64 `json:"base_cost"`
	// Improvement is 1 − Cost/BaseCost.
	Improvement float64 `json:"improvement"`
}

// WhatIf prices one statement under a hypothetical index
// configuration without any optimizer call beyond the (cached) INUM
// preparation. It takes no daemon-wide lock: concurrent calls contend
// only on the INUM cache's mutex, for a shape lookup. The statement
// leaves nothing behind but its shape, which the cache shares with
// every statement of that shape and bounds.
func (d *Daemon) WhatIf(sql string, indexes []*catalog.Index) (WhatIfResult, error) {
	w, err := workload.Parse(d.cat, sql)
	if err != nil {
		return WhatIfResult{}, err
	}
	if w.Size() != 1 {
		return WhatIfResult{}, fmt.Errorf("server: what-if takes exactly one statement, got %d", w.Size())
	}
	s := w.Statements[0]
	for _, ix := range indexes {
		t := d.cat.Table(ix.Table)
		if t == nil {
			return WhatIfResult{}, fmt.Errorf("server: index on unknown table %q", ix.Table)
		}
		if len(ix.Key) == 0 {
			return WhatIfResult{}, fmt.Errorf("server: index %s has no key column", ix.ID())
		}
		cols := append(append([]string(nil), ix.Key...), ix.Include...)
		for i, col := range cols {
			if t.Column(col) == nil {
				return WhatIfResult{}, fmt.Errorf("server: unknown column %s.%s", ix.Table, col)
			}
			// A repeated column would be priced as a wider index than
			// any the spec can mean.
			if slices.Contains(cols[:i], col) {
				return WhatIfResult{}, fmt.Errorf("server: index %s repeats column %s", ix.ID(), col)
			}
		}
	}
	cfg := engine.NewConfig(d.baseline.Indexes()...)
	for _, ix := range indexes {
		cfg.Add(ix)
	}
	cost, err := d.ad.Inum.StatementCost(s, cfg)
	if err != nil {
		return WhatIfResult{}, err
	}
	base, err := d.ad.Inum.StatementCost(s, d.baseline)
	if err != nil {
		return WhatIfResult{}, err
	}
	d.whatifs.Add(1)
	res := WhatIfResult{Cost: cost, BaseCost: base}
	if base > 0 {
		res.Improvement = 1 - cost/base
	}
	return res, nil
}

// RecommendOptions parameterize one recommendation.
type RecommendOptions struct {
	// BudgetFraction is the storage budget as a fraction of the data
	// size; zero or negative means unconstrained.
	BudgetFraction float64 `json:"budget_fraction"`
}

// RecommendResult is one recommendation over the live workload.
type RecommendResult struct {
	Indexes []IndexSpec `json:"indexes"`
	// EstCost/Lower/Gap mirror cophy.Result.
	EstCost float64 `json:"est_cost"`
	Lower   float64 `json:"lower"`
	Gap     float64 `json:"gap"`
	// Iters counts solver subgradient iterations — warm incremental
	// re-solves show up as a drop here.
	Iters int `json:"iters"`
	// TraceID echoes the request's trace ID (also in the X-Trace-Id
	// response header), so a slow recommendation can be matched to its
	// request-log line and span breakdown. A remembered answer carries
	// the caller's own ID.
	TraceID string `json:"trace_id,omitempty"`
	// Warm is true when the solve reused the previous session state.
	Warm bool `json:"warm"`
	// WorkloadSize and Candidates describe the solved instance.
	WorkloadSize int `json:"workload_size"`
	Candidates   int `json:"candidates"`
	// Dominated counts the candidates the model left out because another
	// candidate is no larger, no costlier to maintain and no worse in
	// any slot (cophy.Result.Dominated).
	Dominated int `json:"dominated"`
	// InumMillis/BuildMillis/SolveMillis break down the wall time.
	InumMillis  float64 `json:"inum_ms"`
	BuildMillis float64 `json:"build_ms"`
	SolveMillis float64 `json:"solve_ms"`
	// Infeasible recommendations name the offending constraints.
	Infeasible bool     `json:"infeasible,omitempty"`
	Violated   []string `json:"violated,omitempty"`
}

// Recommend solves the index-selection problem over the current live
// workload. The first call is cold (INUM preparation plus a cold
// Lagrangian solve); subsequent calls reuse the daemon's session — the
// INUM cache, the previous incumbent as MIP start, and the previous
// multipliers matched to surviving statements by block label — so a
// re-solve after a small ingestion delta is incremental.
//
// Overload discipline: a repeat of the last answered question — no
// ingest since, same budget — gets the remembered answer without a
// solve, once it reaches the session slot. Every request passes through
// the bounded admission queue; a full queue or an expired queue wait
// sheds the request with ErrOverloaded (429 + Retry-After at the HTTP
// layer). A caller whose own deadline expires gives up wherever it is
// waiting (503). A candidate set beyond the configured cap is rejected
// before any solver work (413). While the daemon is degraded the
// request is refused outright (503 naming the cause): a recommendation
// mutates session state whose durability cannot currently be
// maintained.
func (d *Daemon) Recommend(ctx context.Context, opts RecommendOptions) (RecommendResult, error) {
	if err := d.checkWritable(); err != nil {
		return RecommendResult{}, err
	}
	res, err := d.solveRecommend(ctx, opts)
	if tr := obs.TraceFrom(ctx); tr != nil {
		res.TraceID = tr.ID
	}
	return res, err
}

// solveRecommend is Recommend's path: admission queue, session slot,
// remembered answer or solve.
func (d *Daemon) solveRecommend(ctx context.Context, opts RecommendOptions) (RecommendResult, error) {
	// The generation is read before the snapshot: an ingest between
	// the two labels the answer older than its workload, so the next
	// request solves again rather than reusing it.
	gen := d.stream.Generation()
	w := d.stream.Snapshot()
	if w.Size() == 0 {
		return RecommendResult{}, fmt.Errorf("server: no workload ingested yet")
	}
	if err := ctx.Err(); err != nil {
		return RecommendResult{}, err
	}
	stopQueue := obs.TraceFrom(ctx).StartSpan("queue.wait")
	release, err := d.adm.admit(ctx, d.sem)
	stopQueue()
	if err != nil {
		return RecommendResult{}, err
	}
	defer release()
	if d.last != nil && d.lastGen == gen && d.lastBudget == opts.BudgetFraction {
		d.coalesced.Inc()
		return *d.last, nil
	}
	t0 := time.Now()

	// Candidate generation runs inside the session slot, after
	// admission: a request the queue sheds costs nothing but the
	// snapshot above.
	cons := d.consFor(opts.BudgetFraction)
	stopCand := obs.TraceFrom(ctx).StartSpan("candgen")
	cands := cophy.Candidates(d.cat, w, d.cgen)
	stopCand()

	if d.maxCandidates > 0 && len(cands) > d.maxCandidates {
		return RecommendResult{}, fmt.Errorf("server: %w: %d > %d", ErrTooManyCandidates, len(cands), d.maxCandidates)
	}
	// The session holds exactly the live candidates: ones no live
	// statement generates anymore are dropped here, with the warm state
	// carried across, so the session never outgrows the request.
	if d.session == nil {
		d.session = d.ad.NewSession(w, cands, cons)
	} else {
		d.session.SetWorkload(w)
		if d.session.SetCandidates(cands) > 0 {
			d.compactions.Inc()
		}
		d.session.SetConstraints(cons)
	}
	// Infeasible solves are not retained by the session, so a failed
	// recommendation leaves the next one cold — ask the session, don't
	// count calls.
	warm := d.session.Warm()
	res, err := d.session.SolveCtx(ctx)
	if err != nil {
		return RecommendResult{}, err
	}
	// Feed the admission layer's latency estimate (the basis of
	// Retry-After) with the full in-slot wall time: candidate
	// generation plus solve, the cost the next queued caller will pay.
	d.adm.observe(time.Since(t0))
	d.recommends.Inc()
	d.lastBudget = opts.BudgetFraction
	// Log the post-solve session state — candidates, constraint knob,
	// duals, incumbent — as an absolute WAL record, so a hard kill any
	// time after this response still restarts with a warm first solve.
	// Best-effort by design: the recommendation itself was computed and
	// is returned; losing its warmth to a disk error costs a cold
	// re-solve, not correctness.
	if d.store != nil && !res.Infeasible {
		if st := d.sessionStateLocked(opts.BudgetFraction); st != nil {
			// appendWAL counts the failure in persist_errors.
			_ = d.appendWAL(ctx, walRecord{Type: "session", Session: st})
		}
	}

	out := RecommendResult{
		EstCost:      res.EstCost,
		Lower:        res.Lower,
		Gap:          res.Gap,
		Iters:        res.Iters,
		Warm:         warm,
		WorkloadSize: w.Size(),
		Candidates:   len(d.session.Candidates()),
		Dominated:    res.Dominated,
		InumMillis:   res.Times.INUM.Seconds() * 1000,
		BuildMillis:  res.Times.Build.Seconds() * 1000,
		SolveMillis:  res.Times.Solve.Seconds() * 1000,
		Infeasible:   res.Infeasible,
		Violated:     res.Violated,
	}
	for _, ix := range res.Indexes {
		out.Indexes = append(out.Indexes, specOf(d.cat, ix))
	}
	d.last, d.lastGen = &out, gen
	return out, nil
}

// Stats is the daemon's observability snapshot.
type Stats struct {
	// Health is the serving state ("healthy", "degraded", "draining");
	// DegradedCause names the durability failure while degraded.
	Health        string `json:"health"`
	DegradedCause string `json:"degraded_cause,omitempty"`

	Live       int     `json:"live_statements"`
	LiveWeight float64 `json:"live_weight"`
	Observed   int64   `json:"observed_statements"`
	Ticks      int64   `json:"decay_ticks"`
	Ingested   int64   `json:"ingested"`
	WhatIfs    int64   `json:"whatifs"`
	Recommends int64   `json:"recommends"`
	// QueueDepth / QueuedPeak / ShedRequests / CoalescedRequests expose
	// the admission layer: how many recommendations are waiting right
	// now, the worst it has been, how many were refused with 429, and
	// how many got the remembered answer instead of a solve.
	QueueDepth        int64 `json:"queue_depth"`
	QueuedPeak        int64 `json:"queued_peak"`
	ShedRequests      int64 `json:"shed_requests"`
	CoalescedRequests int64 `json:"coalesced_requests"`
	// DegradedEntries counts healthy→degraded transitions over the
	// daemon's lifetime; DiskErrors counts failed filesystem operations
	// observed by the store.
	DegradedEntries int64 `json:"degraded_entries"`
	DiskErrors      int64 `json:"disk_errors"`
	// PrepCalls counts the optimizer calls spent deriving template
	// plans; EvictedEntries counts derived shapes the INUM cache's bound
	// dropped.
	PrepCalls      int64 `json:"prep_calls"`
	EvictedEntries int64 `json:"evicted_entries"`
	// NumericFallbacks and WarmDowngrades are always zero. The
	// benchmark still reads them; ROADMAP item 4(b) deletes them.
	NumericFallbacks int64 `json:"numeric_fallbacks"`
	WarmDowngrades   int64 `json:"warm_downgrades"`
	// SessionCompactions counts recommendations that dropped at least
	// one candidate no live statement generates anymore (the warm state
	// is carried across). SessionRebases is always zero: the benchmark
	// still reads it; ROADMAP item 4(b) deletes it.
	SessionRebases     int64 `json:"session_rebases"`
	SessionCompactions int64 `json:"session_compactions"`
	// PlanCacheHits / PlanCacheMisses expose the INUM shape cache, one
	// per lookup: hits skipped every optimizer call by reusing an earlier
	// derivation of the shape — a repeated what-if included.
	// PlanShapes is the number of derived shapes currently cached.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	PlanShapes      int   `json:"plan_shapes"`
	// Warming is true while the post-recovery background re-prepare is
	// still running; the daemon serves throughout.
	Warming bool `json:"warming"`
	// WALRecords / SnapshotsWritten / PersistErrors expose the
	// durability layer — always present, so "zero errors" never reads
	// as a missing key; Recovery describes what the last restart
	// rebuilt and is absent when no data directory is configured.
	WALRecords       int64          `json:"wal_records"`
	SnapshotsWritten int64          `json:"snapshots_written"`
	PersistErrors    int64          `json:"persist_errors"`
	Recovery         *RecoveryStats `json:"recovery,omitempty"`
}

// Snapshot returns current counters.
func (d *Daemon) Snapshot() Stats {
	hits, misses := d.ad.Inum.ShapeStats()
	health, cause := d.Health()
	st := Stats{
		PlanCacheHits:      hits,
		PlanCacheMisses:    misses,
		PlanShapes:         d.ad.Inum.ShapeCount(),
		Warming:            d.warming.Load(),
		Health:             health,
		DegradedCause:      cause,
		QueueDepth:         int64(len(d.adm.tickets)),
		QueuedPeak:         d.adm.peak.Load(),
		ShedRequests:       d.adm.shed.Load(),
		CoalescedRequests:  d.coalesced.Load(),
		DegradedEntries:    d.degradedEntries.Load(),
		Live:               d.stream.Len(),
		LiveWeight:         d.stream.LiveWeight(),
		Observed:           d.stream.Observed(),
		Ticks:              d.stream.Ticks(),
		Ingested:           d.ingested.Load(),
		WhatIfs:            d.whatifs.Load(),
		Recommends:         d.recommends.Load(),
		PrepCalls:          d.ad.Inum.PrepStats(),
		EvictedEntries:     d.ad.Inum.ShapeEvictions(),
		SessionCompactions: d.compactions.Load(),
		WALRecords:         d.walRecords.Load(),
		SnapshotsWritten:   d.snapshots.Load(),
		PersistErrors:      d.persistErrors.Load(),
	}
	if d.store != nil {
		d.recMu.Lock()
		rec := d.recovery
		d.recMu.Unlock()
		st.Recovery = &rec
		st.DiskErrors = d.store.DiskErrors()
	}
	return st
}
