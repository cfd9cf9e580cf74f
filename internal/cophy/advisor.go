package cophy

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Options tune the advisor.
type Options struct {
	// GapTol is the optimality-gap tolerance at which the solver
	// returns; the paper's default tuning is 5% (§5.1).
	GapTol float64
	// RootIters / NodeIters / MaxNodes bound the solver's effort; zero
	// values take the solver defaults.
	RootIters, NodeIters, MaxNodes int
	// TimeLimit caps the solve phase (0 = none).
	TimeLimit time.Duration
	// Progress receives bound events during solving — the feedback
	// channel behind early termination (Figure 6a).
	Progress func(lagrange.Event)
}

// Advisor is the CoPhy index advisor over one engine. The INUM cache
// persists across calls, so repeated tuning sessions on the same
// workload skip the optimizer entirely.
type Advisor struct {
	Cat  *catalog.Catalog
	Eng  *engine.Engine
	Inum *inum.Cache
	Opts Options

	// baseline is X0, the clustered primary-key indexes: shared by every
	// instance and never mutated.
	baseline *engine.Config
	solves   atomic.Int64
	// workers becomes every instance's Workers: zero (GOMAXPROCS) except
	// in tests, which raise it above the core count.
	workers int
}

// Solves counts the solver runs this advisor has started (across every
// session), so a test can tell a solve from a remembered answer.
func (a *Advisor) Solves() int64 { return a.solves.Load() }

// NewAdvisor builds an advisor with a fresh INUM cache.
func NewAdvisor(cat *catalog.Catalog, eng *engine.Engine, opts Options) *Advisor {
	if opts.GapTol <= 0 {
		opts.GapTol = 0.05
	}
	return &Advisor{
		Cat: cat, Eng: eng, Inum: inum.New(eng), Opts: opts,
		baseline: engine.NewConfig(cat.PrimaryKeyIndexes()...),
	}
}

// Result is a tuning recommendation.
type Result struct {
	// Indexes is the recommended configuration X*.
	Indexes []*catalog.Index
	// Selected marks the chosen candidates positionally (aligned with
	// the instance's S).
	Selected []bool
	// EstCost is the INUM-estimated workload cost under X*.
	EstCost float64
	// Lower is the proven lower bound on the optimal workload cost.
	Lower float64
	// Gap is the relative optimality gap at termination.
	Gap float64
	// Iters counts the solver's subgradient iterations — the warm-start
	// savings of an incremental re-solve show up here.
	Iters int
	// Nodes counts branch-and-bound nodes beyond the root.
	Nodes int
	// Dominated counts the candidates BIPGen emitted no option for,
	// because another candidate strictly dominates them.
	Dominated int
	// NumericFallbacks and WarmDowngrades are always zero. The
	// benchmark still reads them; ROADMAP item 4(b) deletes them.
	NumericFallbacks int
	WarmDowngrades   int
	// Times is the INUM/build/solve breakdown of Figures 5 and 10.
	Times Timings
	// Trace holds the solver's bound events over time (Figure 6a).
	Trace []lagrange.Event
	// Infeasible is set when the hard constraints admit no solution;
	// Violated then names the offending constraints (Figure 3 line 2).
	Infeasible bool
	Violated   []string
	// Lambda is the solver's dual state, reusable for warm starts.
	Lambda lagrange.Dual
}

// Recommend runs one full tuning session: INUM preparation, BIP
// construction, feasibility check, Lagrangian relaxation and solve —
// the first solve of a session nobody keeps.
func (ad *Advisor) Recommend(w *workload.Workload, s []*catalog.Index, cons Constraints) (*Result, error) {
	return ad.NewSession(w, s, cons).Solve()
}

// instance assembles the problem instance with the baseline X0.
func (ad *Advisor) instance(w *workload.Workload, s []*catalog.Index) *Instance {
	return &Instance{Cat: ad.Cat, Eng: ad.Eng, Inum: ad.Inum, Workload: w, S: s, Baseline: ad.baseline, Workers: ad.workers}
}

// prepare is the front half of the pipeline (Figure 3, §3–4), stated
// once: instance → INUM preparation → BIPGen with constraint
// compilation.
// Every model the advisor solves is built here, over the compiled state
// cs the caller keeps (empty for a first build), which the build brings
// up to date in place. INUM preparation is the template lookups of the
// statements cs holds no slab for; a kept slab costs none.
func (ad *Advisor) prepare(ctx context.Context, cs *compiled, w *workload.Workload, s []*catalog.Index, cons Constraints) (*Instance, *lagrange.Model, Timings, error) {
	inst := ad.instance(w, s)

	t0 := time.Now()
	stop := obs.TraceFrom(ctx).StartSpan("inum.prepare")
	ad.Inum.PrepareMatrix(&cs.mat, w, ad.workers)
	stop()
	times := Timings{INUM: time.Since(t0)}
	if err := ctx.Err(); err != nil {
		return nil, nil, Timings{}, err
	}

	t1 := time.Now()
	model, err := cs.model(ctx, inst, cons)
	if err != nil {
		return nil, nil, Timings{}, err
	}
	times.Build = time.Since(t1)
	return inst, model, times, nil
}

// solverOptions is the one place Options become lagrange.Options. The
// context rides along as Ctx, so the solver stops once it is cancelled
// or its deadline passes: a bounded request never outlives its caller.
func (ad *Advisor) solverOptions(ctx context.Context, gapTol float64, warm lagrange.Dual, start []bool) lagrange.Options {
	return lagrange.Options{
		GapTol:    gapTol,
		RootIters: ad.Opts.RootIters,
		NodeIters: ad.Opts.NodeIters,
		MaxNodes:  ad.Opts.MaxNodes,
		TimeLimit: ad.Opts.TimeLimit,
		Ctx:       ctx,
		Warm:      warm,
		Start:     start,
		Progress:  ad.Opts.Progress,
	}
}

// solve runs Figure 3's back half: the feasibility screen and relax(B)
// (both inside the Lagrangian solver) and the bounded search, stopping
// at gapTol — the advisor's tolerance, or the gap the DBA already
// accepted when the session is warm.
func (ad *Advisor) solve(ctx context.Context, inst *Instance, model *lagrange.Model, warm lagrange.Dual, start []bool, gapTol float64) (*Result, time.Duration) {
	t := time.Now()
	opts := ad.solverOptions(ctx, gapTol, warm, start)
	var trace []lagrange.Event
	progress := opts.Progress
	opts.Progress = func(e lagrange.Event) {
		trace = append(trace, e)
		if progress != nil {
			progress(e)
		}
	}
	lr := lagrange.Solve(model, opts)
	solveTime := time.Since(t)
	if lr.Infeasible {
		// Either the solver's screen found the z polytope empty and the
		// report names the constraints to drop (Figure 3 line 2), or no
		// selection satisfies the per-statement cost caps (Appendix E.2).
		violated := model.IdentifyInfeasible()
		if len(violated) == 0 {
			violated = []string{"query-cost-constraints"}
		}
		return &Result{Infeasible: true, Violated: violated, Trace: trace}, time.Since(t)
	}
	res := &Result{
		Selected: lr.Selected,
		EstCost:  lr.Objective,
		Lower:    lr.Lower,
		Gap:      lr.Gap,
		Iters:    lr.Iters,
		Nodes:    lr.Nodes,
		Trace:    trace,
		Lambda:   lr.Lambda,
	}
	for i, on := range lr.Selected {
		if on {
			res.Indexes = append(res.Indexes, inst.S[i])
		}
	}
	catalog.SortIndexes(res.Indexes)
	return res, solveTime
}

// Config returns the recommendation as an engine configuration,
// including the baseline clustered indexes, ready for ground-truth
// evaluation with the what-if optimizer.
func (ad *Advisor) Config(res *Result) *engine.Config {
	cfg := engine.NewConfig(ad.baseline.Indexes()...)
	for _, ix := range res.Indexes {
		cfg.Add(ix)
	}
	return cfg
}

// Session supports interactive tuning (§4.2): the DBA tweaks the
// candidate set or constraints and re-solves; the session reuses the
// INUM cache, the compiled problem, the previous incumbent as a MIP
// start and the previous multipliers as a dual warm start, which is what
// makes the revised recommendation roughly an order of magnitude cheaper
// than the initial one (Figure 6b).
type Session struct {
	ad   *Advisor
	w    *workload.Workload
	cons Constraints
	s    []*catalog.Index
	// warm is what the next solve starts from: set by a successful solve
	// or by RestoreSession, nil while the session is cold.
	warm *warmState
	// built is the compiled problem every build so far left behind. It
	// does not depend on how a solve ended, so unlike warm it survives
	// infeasible, failed and cancelled solves.
	built compiled
}

// warmState is everything a session carries between solves, positional
// over the session's candidates: the dual state, the incumbent (MIP
// start) and the gap the DBA already accepted.
type warmState struct {
	lambda   lagrange.Dual
	selected []bool
	gap      float64
}

// NewSession starts an interactive session.
func (ad *Advisor) NewSession(w *workload.Workload, s []*catalog.Index, cons Constraints) *Session {
	se := &Session{ad: ad, w: w, cons: cons}
	se.SetCandidates(s)
	return se
}

// SessionState is the portable warm state of a session — what a
// durability layer persists so a restarted advisor's first solve is
// incremental rather than cold. Duals and Selected are positional over
// Candidates, so the three travel together.
type SessionState struct {
	// Candidates is the session's candidate set in position order.
	Candidates []*catalog.Index
	// Duals is the dual state of the last solve, blocks labeled by
	// statement ID — the very value the session holds (immutable, so
	// shared rather than copied) and the form the daemon persists.
	Duals lagrange.Dual
	// Selected is the last incumbent, aligned with Candidates.
	Selected []bool
	// Gap is the relative optimality gap the last solve achieved.
	Gap float64
}

// start returns the warm incumbent sized to the current candidate set:
// candidates appended since start off.
func (se *Session) start() []bool {
	sel := make([]bool, len(se.s))
	copy(sel, se.warm.selected)
	return sel
}

// ExportState captures the session's warm state, or nil when the
// session is cold.
func (se *Session) ExportState() *SessionState {
	if se.warm == nil {
		return nil
	}
	return &SessionState{
		Candidates: append([]*catalog.Index(nil), se.s...),
		Duals:      se.warm.lambda,
		Selected:   se.start(),
		Gap:        se.warm.gap,
	}
}

// RestoreSession rebuilds a session from persisted warm state: the
// candidate positions come from the state (so the dual sites' index
// keys stay meaningful) and the first solve warm-starts from the
// recovered multipliers and incumbent exactly as it would from the
// previous in-process solve.
func (ad *Advisor) RestoreSession(w *workload.Workload, state *SessionState, cons Constraints) *Session {
	se := ad.NewSession(w, state.Candidates, cons)
	se.warm = &warmState{lambda: state.Duals, selected: state.Selected, gap: state.Gap}
	return se
}

// SetCandidates makes live (deduplicated by ID) the session's candidate
// set — the DBA's revision of §4.2 — and reports how many of the old
// candidates it dropped. Surviving candidates keep their old order and
// come first; the new ones follow in live's order. The warm state is
// carried across: surviving candidates' multipliers move to their new
// positions (blocks still matched by statement label), dropped
// candidates' sites are discarded and the incumbent keeps its surviving
// choices, so the next solve stays warm. The compiled problem follows
// by the same renumbering, evaluating γ for the new candidates alone.
func (se *Session) SetCandidates(live []*catalog.Index) (dropped int) {
	// pending holds the IDs of live not yet placed.
	pending := make(map[string]bool, len(live))
	for _, ix := range live {
		pending[ix.ID()] = true
	}
	old := se.s
	perm := make([]int32, len(old))
	se.s = make([]*catalog.Index, 0, len(pending))
	for i, ix := range old {
		perm[i] = -1
		if id := ix.ID(); pending[id] {
			delete(pending, id)
			perm[i] = int32(len(se.s))
			se.s = append(se.s, ix)
		}
	}
	dropped = len(old) - len(se.s)
	for _, ix := range live {
		if id := ix.ID(); pending[id] {
			delete(pending, id)
			se.s = append(se.s, ix)
		}
	}
	if dropped == 0 || se.warm == nil {
		return dropped // positions unchanged: start() pads the incumbent
	}
	sel := make([]bool, len(se.s))
	for i, on := range se.warm.selected {
		if on && i < len(perm) && perm[i] >= 0 {
			sel[perm[i]] = true
		}
	}
	se.warm = &warmState{lambda: se.warm.lambda.Remap(perm), selected: sel, gap: se.warm.gap}
	return dropped
}

// Candidates returns the session's current candidate set.
func (se *Session) Candidates() []*catalog.Index { return se.s }

// AddCandidates appends candidates to S (deduplicating), the
// incremental exploration of §4.2.
func (se *Session) AddCandidates(delta []*catalog.Index) {
	se.SetCandidates(append(se.Candidates(), delta...))
}

// SetConstraints replaces the session's constraint set for the next
// solve.
func (se *Session) SetConstraints(cons Constraints) { se.cons = cons }

// SetWorkload replaces the session's workload for the next solve — the
// streaming-ingestion delta path. Statements keep their IDs across
// snapshots, so the blocks of the next model carry the same labels and
// the previous multipliers warm every surviving statement; statements
// that appeared or changed weight are repriced, not cold-started.
// Candidate positions are managed by SetCandidates alone, so the
// previous incumbent remains a valid MIP start.
func (se *Session) SetWorkload(w *workload.Workload) { se.w = w }

// Workload returns the session's current workload.
func (se *Session) Workload() *workload.Workload { return se.w }

// Warm reports whether the next Solve will reuse previous session
// state (incumbent MIP start and dual warm start). Infeasible results
// are not retained, so a failed solve leaves the session as it was.
func (se *Session) Warm() bool { return se.warm != nil }

// Solve computes (or recomputes) the recommendation. The first call
// pays INUM preparation and a cold solve; later calls are warm.
func (se *Session) Solve() (*Result, error) {
	return se.SolveCtx(context.Background())
}

// SolveCtx is Solve bounded by a context: its deadline or cancellation
// stops the search between iterations, and a solve that did not run to completion because the
// context ended returns the context's error without retaining any
// session state (the next solve stays warm from the last successful
// one). This is the daemon's request-timeout path.
func (se *Session) SolveCtx(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ad := se.ad
	ad.solves.Add(1)
	inst, model, times, err := ad.prepare(ctx, &se.built, se.w, se.s, se.cons)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var lambda lagrange.Dual
	var start []bool
	gapTol := ad.Opts.GapTol
	if se.warm != nil {
		lambda, start = se.warm.lambda, se.start()
		// Stop once the revision is as tight as the solution the DBA
		// already accepted: with the repriced warm duals this is
		// usually reached almost immediately, the computation-reuse
		// effect of Figure 6(b). Clamped at 2× the advisor tolerance:
		// the achieved gap tends to land just under the tolerance, so
		// without a cap a long-lived session (the streaming daemon
		// re-solves after every delta) would compound the ratchet ~2%
		// per solve and degrade without bound.
		if g := se.warm.gap * 1.02; g > gapTol {
			gapTol = math.Min(g, 2*ad.Opts.GapTol)
		}
	}
	res, solveTime := ad.solve(ctx, inst, model, lambda, start, gapTol)
	if err := ctx.Err(); err != nil {
		// The search was cut short by the caller's deadline or
		// cancellation; its partial result is not a recommendation.
		return nil, err
	}
	times.Solve = solveTime
	res.Times = times
	for _, on := range se.built.mask {
		if on {
			res.Dominated++
		}
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.Add("inum", times.INUM)
		tr.Add("build", times.Build)
		tr.Add("solve", solveTime)
	}
	if !res.Infeasible {
		se.warm = &warmState{lambda: res.Lambda, selected: res.Selected, gap: res.Gap}
	}
	return res, nil
}

// InstanceForTest exposes instance construction for diagnostics and
// white-box tests.
func InstanceForTest(ad *Advisor, w *workload.Workload, s []*catalog.Index) *Instance {
	return ad.instance(w, s)
}

// CompiledForTest reports the session's compiled state — the statements
// it holds a γ slab for, the distinct slabs its workload's statements
// map to (one per shape class) and the layouts derived from slabs — so
// tests can hold it to the daemon's bounded-memory contract.
func CompiledForTest(se *Session) (queries, slabs, layouts int) {
	distinct := map[*inum.QueryMatrix]bool{}
	for _, st := range se.w.Queries() {
		distinct[se.built.mat.Query(st.Query)] = true
	}
	return se.built.mat.Len(), len(distinct), len(se.built.layouts)
}
