package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/obs"
	"repro/internal/workload"
)

// revision is one step of the interactive-tuning script: a change the
// DBA makes to the session, followed by a re-solve.
type revision struct {
	name   string
	budget float64 // budget fraction in force after the step
	apply  func(se *cophy.Session)
}

// sessionInputs is the hom1000_session problem: a workload, three
// quarters of its candidates to start from, and the 13-step script.
type sessionInputs struct {
	sys     system
	base    *workload.Workload
	initial []*catalog.Index
	script  []revision
	final   *workload.Workload // the workload in force after the last step
	hash    string             // of everything the script feeds the session
}

var sessionBudgets = [4]float64{0.4, 0.6, 0.3, 0.5}

// setupSession builds the run's instances over one shared system.
func setupSession(cfg config) func() ([]sessionInputs, error) {
	return func() ([]sessionInputs, error) {
		sys := newSystem()
		ins := make([]sessionInputs, cfg.sizes.sessionInstances)
		for j := range ins {
			ins[j] = sessionInstance(sys, cfg.sizes.homQueries, instanceSeed(cfg, false, j))
		}
		return ins, nil
	}
}

// sessionInstance generates one workload and its revision script.
func sessionInstance(sys system, queries int, seed int64) sessionInputs {
	base := workload.Hom(workload.HomConfig{Queries: queries, Seed: seed})
	all := cophy.Candidates(sys.cat, base, cgenOptions)
	in := sessionInputs{sys: sys, base: base}
	h := sha256.New()
	for _, st := range base.Statements {
		fmt.Fprintln(h, st.ID(), st.String())
	}

	// Every fourth candidate is held back, in four groups the script
	// adds one at a time.
	var held [4][]*catalog.Index
	for i, ix := range all {
		if i%4 == 3 {
			held[(i/4)%4] = append(held[(i/4)%4], ix)
		} else {
			in.initial = append(in.initial, ix)
			fmt.Fprintln(h, "initial", ix.ID())
		}
	}
	budget := budgetFraction
	for k := 0; k < 4; k++ {
		group := held[k]
		in.script = append(in.script, revision{
			name: fmt.Sprintf("add-candidates-%d", k), budget: budget,
			apply: func(se *cophy.Session) { se.AddCandidates(group) },
		})
		for _, ix := range group {
			fmt.Fprintln(h, "add", k, ix.ID())
		}

		budget = sessionBudgets[k]
		cons := cophy.FractionOfData(sys.cat, budget)
		in.script = append(in.script, revision{
			name: fmt.Sprintf("budget-%.1f", budget), budget: budget,
			apply: func(se *cophy.Session) { se.SetConstraints(cons) },
		})
		fmt.Fprintln(h, "budget", budget)

		// Same statements, same IDs, every fifth weight doubled
		// (a different fifth each time): a pure weight delta.
		w := &workload.Workload{Name: fmt.Sprintf("%s-reweighted-%d", base.Name, k)}
		for i, st := range base.Statements {
			weight := st.Weight
			if i%5 == k {
				weight *= 2
			}
			w.Statements = append(w.Statements, &workload.Statement{Query: st.Query, Update: st.Update, Weight: weight})
			fmt.Fprintln(h, "weight", k, st.ID(), weight)
		}
		in.script = append(in.script, revision{
			name: fmt.Sprintf("reweight-%d", k), budget: budget,
			apply: func(se *cophy.Session) { se.SetWorkload(w) },
		})
		in.final = w
	}
	in.script = append(in.script, revision{name: "no-op", budget: budget, apply: func(*cophy.Session) {}})
	in.hash = fmt.Sprintf("%x", h.Sum(nil))
	return in
}

// solved is one session solve, cold or warm.
type solved struct {
	wall, firstBound time.Duration
	res              *cophy.Result
}

// sessionRun is one pass of the script over a fresh session.
type sessionRun struct {
	cold      solved
	revisions []solved
}

func (s sessionRun) fingerprint() string {
	out := fmt.Sprintf("cold gap=%.17g iters=%d", s.cold.res.Gap, s.cold.res.Iters)
	for _, r := range s.revisions {
		out += fmt.Sprintf("; gap=%.17g iters=%d", r.res.Gap, r.res.Iters)
	}
	return out
}

// play runs the script once on a fresh advisor and session. With a
// recorder, every re-solve runs under an obs.Trace and is recorded as a
// span whose children are the phase times the program itself reports
// (Result.Times and the lp.* spans), followed by a probe that compiles
// the γ matrix on its own.
func (in sessionInputs) play(rec *recorder, l layers, c *checks) (sessionRun, error) {
	runtime.GC() // every pass starts from the same heap
	var fb firstBound
	opts := advisorOptions()
	opts.Progress = fb.progress
	ad := cophy.NewAdvisor(in.sys.cat, in.sys.eng, opts)
	se := ad.NewSession(in.base, in.initial, cophy.FractionOfData(in.sys.cat, budgetFraction))
	baseline := in.sys.baseline()

	solve := func(what string, budget float64, rec *recorder) (solved, error) {
		tr := obs.NewTrace()
		ctx := context.Background()
		if rec != nil {
			ctx = obs.WithTrace(ctx, tr)
		}
		rec.newTrace()
		fb.arm()
		t0 := time.Now()
		id, end := rec.start("session.solve", 0)
		res, err := se.SolveCtx(ctx)
		end()
		wall := time.Since(t0)
		if err != nil {
			return solved{}, fmt.Errorf("%s: %w", what, err)
		}
		c.checkResult(what, in.sys.cat, res, budget*float64(in.sys.cat.TotalBytes()))
		c.that(fb.seen, "%s: no progress event carried both bounds", what)
		if rec != nil && !res.Infeasible {
			phases := rec.aggregate(id, []aggPart{
				{name: "inum.prepare", dur: res.Times.INUM, count: 1},
				{name: "cophy.build", dur: res.Times.Build, count: 1},
				{name: "lagrange.solve", dur: res.Times.Solve, count: 1},
			})
			lp := lpParts(tr)
			rec.aggregate(phases[2], lp)
			_, compile := rec.timed("probe.inum.compile", 0, func() {
				ad.Inum.CompileMatrix(se.Workload(), se.Candidates(), baseline, 0)
			})
			l.add("inum.prepare_s", res.Times.INUM.Seconds())
			l.add("inum.compile_s", compile.Seconds())
			l.add("cophy.build_s", res.Times.Build.Seconds())
			l.add("cophy.build_self_s", (res.Times.Build - compile).Seconds())
			l.add("lagrange.solve_s", res.Times.Solve.Seconds())
			if res.Iters > 0 {
				l.add("lagrange.iter_us", res.Times.Solve.Seconds()*1e6/float64(res.Iters))
			}
			l.addLP(lp, res.Times.Solve)
		}
		// The run keeps every solve's result to the end; the dual state,
		// bound history and selection vector are a megabyte a solve and
		// would grow the resident set with the number of passes.
		kept := *res
		kept.Lambda, kept.Trace, kept.Selected = nil, nil, nil
		return solved{wall: wall, firstBound: fb.after, res: &kept}, nil
	}

	var run sessionRun
	var err error
	// The cold solve is never traced: its layers are the cold workloads'
	// business, and its samples would drown in the warm ones.
	if run.cold, err = solve("cold solve", budgetFraction, nil); err != nil {
		return run, err
	}
	for _, step := range in.script {
		step.apply(se)
		s, err := solve(step.name, step.budget, rec)
		if err != nil {
			return run, err
		}
		run.revisions = append(run.revisions, s)
	}
	if rec != nil {
		var warm, fallbacks, downs int
		for _, s := range run.revisions {
			warm += s.res.Iters
			fallbacks += s.res.NumericFallbacks
			downs += s.res.WarmDowngrades
		}
		if run.cold.res.Iters > 0 {
			l.add("lagrange.warm_iter_ratio", float64(warm)/float64(len(run.revisions))/float64(run.cold.res.Iters))
		}
		l.add("lagrange.iters", float64(warm))
		l.add("lagrange.numeric_fallbacks", float64(fallbacks))
		l.add("lagrange.warm_downgrades", float64(downs))
		l.add("cophy.candidates", float64(len(se.Candidates())))
		hits, misses := ad.Inum.ShapeStats()
		l.add("inum.shape_hits", float64(hits))
		l.add("inum.shape_misses", float64(misses))
		l.add("inum.shape_hit_ratio", float64(hits)/float64(hits+misses))
	}
	return run, nil
}

// runSession measures hom1000_session: the revision script played on
// fresh sessions, taking the run's instances in turn for the run
// length. The traced run follows every plain pass with a traced one
// over the same instance.
func runSession(cfg config) (*report, error) {
	r := newReport()
	ins, setups, err := timeSetups(cfg.sizes.setups, setupSession(cfg))
	if err != nil {
		return nil, err
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
	byInstance := make([][]sessionRun, len(ins))
	var plain, traced []sessionRun
	var peaks samples
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	for p := newPacer(cfg.seconds, len(ins)); p.more(); p.tick() {
		j := p.done % len(ins)
		rss.take() // what came before this pass is not its peak
		run, err := ins[j].play(nil, nil, &r.checks)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss.take())
		plain = append(plain, run)
		byInstance[j] = append(byInstance[j], run)
		if cfg.trace {
			run, err := ins[j].play(rec, l, &r.checks)
			if err != nil {
				return nil, err
			}
			traced = append(traced, run)
			byInstance[j] = append(byInstance[j], run)
		}
	}
	delta := memSince(&mem)

	// Per instance: every pass took the same path, and the last
	// revision's recommendation is checked against the optimizer.
	var ratios, improvements samples
	var groundtruth time.Duration
	for j, runs := range byInstance {
		if len(runs) == 0 {
			continue
		}
		for _, run := range runs {
			r.that(run.fingerprint() == runs[0].fingerprint(), "nondeterministic: %s vs %s", run.fingerprint(), runs[0].fingerprint())
		}
		final := runs[0].revisions[len(runs[0].revisions)-1].res
		tg := time.Now()
		improvement, err := ins[j].sys.improvement(ins[j].final, final.Indexes)
		if err != nil {
			return nil, err
		}
		groundtruth += time.Since(tg)
		r.that(improvement > 0, "instance %d, final revision: improvement %.4f is not positive", j, improvement)
		improvements = append(improvements, improvement)
		for _, s := range runs[0].revisions {
			ratios = append(ratios, s.res.Lower/s.res.EstCost)
		}
	}

	var cold, walls, bounds samples
	for _, run := range plain {
		cold = append(cold, run.cold.wall.Seconds())
		for _, s := range run.revisions {
			walls = append(walls, s.wall.Seconds())
			bounds = append(bounds, s.firstBound.Seconds())
		}
	}
	r.timing("setup_s", setups, 1)
	r.timing("recommend_p50_ms", walls, 1e3)
	r.timing("first_bound_ms", bounds, 1e3)
	r.set("bound_ratio", ratios.median())
	r.set("improvement", improvements.median())
	r.set("ops_per_s", geomean(1/cold.median(), 1/walls.median()))
	r.spread("cold first solve (s)", cold, 1)
	for j, in := range ins {
		r.detail = append(r.detail, fmt.Sprintf("instance %d: revision script %.16s", j, in.hash))
	}
	if err := r.setRSS(rss, peaks); err != nil {
		return nil, err
	}
	if cfg.trace {
		var tracedWalls samples
		for _, run := range traced {
			for _, s := range run.revisions {
				tracedWalls = append(tracedWalls, s.wall.Seconds())
			}
		}
		l.report(r)
		r.set("session.cold_solve_s", cold.median())
		r.set("session.resolve_p90_s", walls.p(0.90))
		r.set("engine.groundtruth_s", groundtruth.Seconds()/float64(len(improvements)))
		r.setTraceHealth(rec, "session.solve", walls.median(), tracedWalls.median())
		r.setMem(delta, (len(plain)+len(traced))*(1+len(ins[0].script)))
		if err := r.writeTrace(rec, cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}
