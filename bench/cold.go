package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/obs"
	"repro/internal/workload"
)

// coldInputs is one cold-advise problem: the system, a generated
// workload and the storage budget.
type coldInputs struct {
	sys  system
	w    *workload.Workload
	cons cophy.Constraints
}

// setupCold generates the run's instances: workloads of one kind and
// size from consecutive instance seeds, over one shared system.
func setupCold(cfg config, het bool) func() ([]coldInputs, error) {
	return func() ([]coldInputs, error) {
		sys := newSystem()
		n := cfg.sizes.homInstances
		if het {
			n = cfg.sizes.hetInstances
		}
		ins := make([]coldInputs, n)
		for j := range ins {
			seed := instanceSeed(cfg, !het, j)
			ins[j] = coldInputs{sys: sys, cons: cophy.FractionOfData(sys.cat, budgetFraction)}
			if het {
				ins[j].w = workload.Het(workload.HetConfig{Queries: cfg.sizes.hetQueries, Seed: seed})
			} else {
				ins[j].w = workload.Hom(workload.HomConfig{Queries: cfg.sizes.homQueries, Seed: seed})
			}
		}
		return ins, nil
	}
}

// advised is what one cold advise produced, whole or staged.
type advised struct {
	wall, firstBound time.Duration
	indexes          []*catalog.Index
	cost, lower, gap float64
	iters            int
	candidates       int
	whatifCalls      int64
}

// fingerprint is what must repeat exactly across the advises of one run.
func (a advised) fingerprint() string {
	return fmt.Sprintf("gap=%.17g iters=%d candidates=%d whatif_calls=%d", a.gap, a.iters, a.candidates, a.whatifCalls)
}

// advise is the end-to-end operation of the cold workloads, exactly as
// cmd/cophy performs it: a fresh advisor, candidate generation, one
// Recommend.
func (in coldInputs) advise(c *checks) (advised, error) {
	runtime.GC() // every advise starts from the same heap, so time and peak memory repeat
	var fb firstBound
	opts := advisorOptions()
	opts.Progress = fb.progress
	in.sys.eng.ResetWhatIfCalls()

	fb.arm()
	t0 := time.Now()
	ad := cophy.NewAdvisor(in.sys.cat, in.sys.eng, opts)
	s := cophy.Candidates(in.sys.cat, in.w, cgenOptions)
	res, err := ad.Recommend(in.w, s, in.cons)
	wall := time.Since(t0)
	if err != nil {
		return advised{}, err
	}
	c.checkResult("advise", in.sys.cat, res, in.cons.BudgetBytes)
	c.that(fb.seen, "advise: no progress event carried both bounds")
	return advised{
		wall: wall, firstBound: fb.after, indexes: res.Indexes,
		cost: res.EstCost, lower: res.Lower, gap: res.Gap, iters: res.Iters,
		candidates: len(s), whatifCalls: in.sys.eng.WhatIfCalls(),
	}, nil
}

// layers collects the per-layer measurements of the traced operations,
// one sample per operation; the median over the operations (and so
// over the run's instances) is reported.
type layers map[string]samples

func (l layers) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layers) report(r *report) {
	names := make([]string, 0, len(l))
	for name := range l {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.timing(name, l[name], 1)
	}
}

// lpParts reads the lp.* spans the solver layers added to the trace.
func lpParts(tr *obs.Trace) []aggPart {
	var parts []aggPart
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "lp.phase1", "lp.phase2", "lp.factor":
			parts = append(parts, aggPart{name: sp.Name, dur: sp.Dur, count: sp.Count})
		}
	}
	return parts
}

func (l layers) addLP(parts []aggPart, solve time.Duration) {
	var lp time.Duration
	got := map[string]aggPart{}
	for _, p := range parts {
		got[p.name] = p
		lp += p.dur
	}
	l.add("lp.phase1_s", got["lp.phase1"].dur.Seconds())
	l.add("lp.phase2_s", got["lp.phase2"].dur.Seconds())
	l.add("lp.factor_s", got["lp.factor"].dur.Seconds())
	l.add("lp.factor_count", float64(got["lp.factor"].count))
	if solve > 0 {
		l.add("lp.share_of_solve", lp.Seconds()/solve.Seconds())
	}
}

// adviseStaged re-executes the same advise stage by stage through the
// exported function of each layer, with a span around every call. The
// probes after the advise (matrix compile alone, dense cost kernel)
// are outside its root span and not part of its wall time.
func (in coldInputs) adviseStaged(rec *recorder, l layers, c *checks) (advised, error) {
	runtime.GC()
	var fb firstBound
	eng := in.sys.eng
	eng.ResetWhatIfCalls()
	eng.ResetSlotCostCalls()

	rec.newTrace()
	fb.arm()
	t0 := time.Now()
	root, endRoot := rec.start("advise", 0)
	ad := cophy.NewAdvisor(in.sys.cat, eng, advisorOptions())

	var s []*catalog.Index
	_, candgen := rec.timed("cophy.candgen", root, func() {
		s = cophy.Candidates(in.sys.cat, in.w, cgenOptions)
	})
	_, prepare := rec.timed("inum.prepare", root, func() { ad.Inum.Prepare(in.w) })
	whatifCalls := eng.WhatIfCalls()

	inst := cophy.InstanceForTest(ad, in.w, s)
	var model *lagrange.Model
	var err error
	_, build := rec.timed("cophy.build", root, func() {
		if model, err = cophy.BuildModel(inst); err == nil {
			model.Budget = in.cons.BudgetBytes // all applyConstraints does for a budget-only set
		}
	})
	if err != nil {
		return advised{}, err
	}
	var feasible bool
	_, feasibleDur := rec.timed("lagrange.feasible", root, func() { feasible, _ = model.CheckFeasible() })
	c.that(feasible, "staged advise: model infeasible")

	tr := obs.NewTrace()
	var lr lagrange.Result
	solveSpan, solve := rec.timed("lagrange.solve", root, func() {
		lr = lagrange.Solve(model, lagrange.Options{
			GapTol: ad.Opts.GapTol, RootIters: ad.Opts.RootIters, NodeIters: ad.Opts.NodeIters,
			MaxNodes: ad.Opts.MaxNodes, TimeLimit: ad.Opts.TimeLimit,
			Ctx: obs.WithTrace(context.Background(), tr), Progress: fb.progress,
		})
	})
	lp := lpParts(tr)
	rec.aggregate(solveSpan, lp)
	endRoot()
	wall := time.Since(t0)
	slotCostCalls := eng.SlotCostCalls()
	if !c.that(!lr.Infeasible, "staged advise: solver found no selection") {
		return advised{}, nil
	}
	c.checkBounds("staged advise", lr.Objective, lr.Lower, lr.Gap)
	out := advised{
		wall: wall, firstBound: fb.after, cost: lr.Objective, lower: lr.Lower, gap: lr.Gap,
		iters: lr.Iters, candidates: len(s), whatifCalls: eng.WhatIfCalls(),
	}
	for i, on := range lr.Selected {
		if on {
			out.indexes = append(out.indexes, s[i])
		}
	}

	// Probes. BuildModel ran this same compile inside cophy.build; it
	// memoizes nothing, so compiling again afterwards costs the same.
	var mat *inum.CostMatrix
	_, compile := rec.timed("probe.inum.compile", 0, func() {
		mat = ad.Inum.CompileMatrix(in.w, s, inst.Baseline, 0)
	})
	nnz, evalNS := matrixProbe(mat, in.w, lr.Selected)

	l.add("cophy.candgen_s", candgen.Seconds())
	l.add("inum.prepare_s", prepare.Seconds())
	l.add("inum.prepare_stmts_per_s", float64(in.w.Size())/prepare.Seconds())
	l.add("inum.compile_s", compile.Seconds())
	l.add("inum.cost_eval_ns", evalNS)
	l.add("cophy.build_s", build.Seconds())
	l.add("cophy.build_self_s", (build - compile).Seconds())
	l.add("lagrange.feasible_s", feasibleDur.Seconds())
	l.add("lagrange.solve_s", solve.Seconds())
	if lr.Iters > 0 {
		l.add("lagrange.iter_us", solve.Seconds()*1e6/float64(lr.Iters))
	}
	l.addLP(lp, solve)
	hits, misses := ad.Inum.ShapeStats()
	l.add("cophy.candidates", float64(len(s)))
	l.add("inum.shape_hits", float64(hits))
	l.add("inum.shape_misses", float64(misses))
	if hits+misses > 0 {
		l.add("inum.shape_hit_ratio", float64(hits)/float64(hits+misses))
	}
	l.add("engine.whatif_calls", float64(whatifCalls))
	l.add("engine.slot_cost_calls", float64(slotCostCalls))
	l.add("inum.matrix_nnz", float64(nnz))
	blocks, options := modelSize(model)
	l.add("cophy.model_blocks", float64(blocks))
	l.add("cophy.model_options", float64(options))
	l.add("lagrange.iters", float64(lr.Iters))
	l.add("lagrange.nodes", float64(lr.Nodes))
	l.add("lagrange.numeric_fallbacks", float64(lr.NumericFallbacks))
	l.add("lagrange.warm_downgrades", float64(lr.WarmDowngrades))
	return out, nil
}

// matrixProbe counts the matrix's finite γ entries and times the dense
// cost kernel, in nanoseconds per QueryMatrix.Cost call.
func matrixProbe(mat *inum.CostMatrix, w *workload.Workload, selected []bool) (nnz int, evalNS float64) {
	var qms []*inum.QueryMatrix
	for _, st := range w.Queries() {
		if qm := mat.Query(st.Query); qm != nil {
			qms = append(qms, qm)
			nnz += len(qm.Gamma)
		}
	}
	if len(qms) == 0 {
		return 0, 0
	}
	const rounds = 20
	var sink float64
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for _, qm := range qms {
			v, _ := qm.Cost(selected)
			sink += v
		}
	}
	evalNS = float64(time.Since(t).Nanoseconds()) / float64(rounds*len(qms))
	runtime.KeepAlive(sink)
	return nnz, evalNS
}

func modelSize(m *lagrange.Model) (blocks, options int) {
	for bi := range m.Blocks {
		for ci := range m.Blocks[bi].Choices {
			for _, slot := range m.Blocks[bi].Choices[ci].Slots {
				options += len(slot)
			}
		}
	}
	return len(m.Blocks), options
}

// runCold measures hom1000_cold or het500_cold: cold advises, taking
// the run's instances in turn for the run length. The traced run
// follows every whole advise with a staged one over the same instance,
// so tracing overhead is the difference of their medians.
func runCold(cfg config, het bool) (*report, error) {
	r := newReport()
	ins, setups, err := timeSetups(cfg.sizes.setups, setupCold(cfg, het))
	if err != nil {
		return nil, err
	}
	if !het { // one het advise is half the run: the ISSUE says cut repeats, never sizes
		for i := 0; i < cfg.sizes.discardHom; i++ {
			if _, err := ins[0].advise(&checks{}); err != nil {
				return nil, err
			}
		}
	}

	var rec *recorder
	var l layers
	if cfg.trace {
		rec, l = newRecorder(), layers{}
	}
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	defer rss.stop()
	byInstance := make([][]advised, len(ins))
	var whole, staged []advised
	var peaks samples
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	for p := newPacer(cfg.seconds, len(ins)); p.more(); p.tick() {
		j := p.done % len(ins)
		rss.take() // what came before this advise is not its peak
		a, err := ins[j].advise(&r.checks)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss.take())
		whole = append(whole, a)
		byInstance[j] = append(byInstance[j], a)
		if cfg.trace {
			a, err := ins[j].adviseStaged(rec, l, &r.checks)
			if err != nil {
				return nil, err
			}
			staged = append(staged, a)
			byInstance[j] = append(byInstance[j], a)
		}
	}
	delta := memSince(&mem)

	// What must repeat exactly does: every advise of one instance, whole
	// or staged, solved the same problem. Quality is per instance, so it
	// is reported as the median over the instances the run reached.
	var ratios, improvements samples
	var groundtruth time.Duration
	for j, as := range byInstance {
		if len(as) == 0 {
			continue
		}
		for _, a := range as {
			r.that(a.fingerprint() == as[0].fingerprint(), "nondeterministic: %s vs %s", a.fingerprint(), as[0].fingerprint())
		}
		tg := time.Now()
		improvement, err := ins[j].sys.improvement(ins[j].w, as[0].indexes)
		if err != nil {
			return nil, err
		}
		groundtruth += time.Since(tg)
		r.that(improvement > 0, "instance %d: improvement %.4f is not positive", j, improvement)
		improvements = append(improvements, improvement)
		ratios = append(ratios, as[0].lower/as[0].cost)
	}

	var walls, bounds samples
	for _, a := range whole {
		walls = append(walls, a.wall.Seconds())
		bounds = append(bounds, a.firstBound.Seconds())
	}
	r.timing("setup_s", setups, 1)
	r.timing("recommend_p50_ms", walls, 1e3)
	r.timing("first_bound_ms", bounds, 1e3)
	r.set("bound_ratio", ratios.median())
	r.set("improvement", improvements.median())
	r.set("ops_per_s", 1/walls.median())
	if err := r.setRSS(rss, peaks); err != nil {
		return nil, err
	}
	if cfg.trace {
		var stagedWalls samples
		for _, a := range staged {
			stagedWalls = append(stagedWalls, a.wall.Seconds())
		}
		l.report(r)
		r.set("engine.groundtruth_s", groundtruth.Seconds()/float64(len(improvements)))
		r.setTraceHealth(rec, "advise", walls.median(), stagedWalls.median())
		r.setMem(delta, len(whole)+len(staged))
		if err := r.writeTrace(rec, cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}
