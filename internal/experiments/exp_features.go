package experiments

import (
	"fmt"
	"time"

	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/lagrange"
)

// ExpFigure6a regenerates Figure 6(a): the solver's estimated distance
// from the optimal solution over time, for three workload sizes.
// Paper shape: the bound drops fast in the early iterations, then
// decays slowly; a 5%-quality solution is available long before the
// proven optimum.
func ExpFigure6a(g *Grid) (*Report, error) {
	cfg := g.cfg
	rep := &Report{
		ID:     "Figure 6(a)",
		Title:  "Continuous feedback for early termination (gap over time)",
		Header: []string{"workload", "event time", "estimated distance from optimal"},
		Notes: []string{
			"paper: W_hom_1000 reaches ≤5% after ~4 min of a >10 min run",
			"expected shape: steep initial drop, long slow tail",
		},
	}
	for _, paperSize := range paperSizes {
		w := cfg.hom(paperSize)
		e := newEnv(0, engine.SystemA())
		var events []lagrange.Event
		ad := cophy.NewAdvisor(e.cat, e.eng, cophy.Options{
			GapTol:    0.001, // run long so the trace shows the tail
			RootIters: 400,
			MaxNodes:  64,
			Progress:  func(ev lagrange.Event) { events = append(events, ev) },
		})
		s := cophy.Candidates(e.cat, w, cophy.CGenOptions{Covering: true})
		if _, err := ad.Recommend(w, s, cophy.FractionOfData(e.cat, 1)); err != nil {
			return nil, err
		}
		// Sample the trace at a handful of representative events.
		picks := sampleEvents(events, 6)
		for _, ev := range picks {
			gap := ev.Gap
			rep.Rows = append(rep.Rows, []string{
				w.Name,
				fmt.Sprintf("%.2fs", ev.Elapsed.Seconds()),
				pct(gap),
			})
		}
	}
	return rep, nil
}

// sampleEvents keeps up to n events spread across the trace,
// always including the first and last.
func sampleEvents(events []lagrange.Event, n int) []lagrange.Event {
	if len(events) <= n {
		return events
	}
	out := make([]lagrange.Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, events[i*(len(events)-1)/(n-1)])
	}
	return out
}

// ExpFigure6b regenerates Figure 6(b): the time to recompute a
// recommendation after the DBA adds 10/25/50/100 candidates to S_1000.
// Paper shape: the initial solve costs ~416 s; every re-tuning costs
// roughly an order of magnitude less (42–136 s), growing mildly with
// the delta size.
func ExpFigure6b(g *Grid) (*Report, error) {
	cfg := g.cfg
	rep := &Report{
		ID:     "Figure 6(b)",
		Title:  "Interactive re-tuning time as candidates are added (W_hom_1000)",
		Header: []string{"candidate set", "solve time", "total time"},
		Notes: []string{
			"paper (seconds): initial 416; +10: 42; +25: 47; +50: 55; +100: 136",
			"expected shape: re-tuning ~an order of magnitude cheaper than the initial solve",
		},
	}
	e := newEnv(0, engine.SystemA())
	w := cfg.hom(1000)
	ad := e.cophyAdvisor(cfg)
	sAll := cophy.Candidates(e.cat, w, cophy.CGenOptions{Covering: true})
	// Reserve a pool of extra candidates to add interactively.
	poolSize := cfg.size(100)
	if poolSize >= len(sAll)/2 {
		poolSize = len(sAll) / 2
	}
	initial := sAll[:len(sAll)-poolSize]
	pool := sAll[len(sAll)-poolSize:]

	se := ad.NewSession(w, initial, cophy.FractionOfData(e.cat, 1))
	t0 := time.Now()
	first, err := se.Solve()
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprintf("initial (%d)", len(initial)),
		secs(first.Times.Solve), secs(time.Since(t0)),
	})

	added := 0
	for _, deltaPaper := range []int{10, 25, 50, 100} {
		delta := cfg.size(deltaPaper) / 2
		if delta < 2 {
			delta = 2
		}
		if added+delta > len(pool) {
			delta = len(pool) - added
		}
		if delta <= 0 {
			break
		}
		se.AddCandidates(pool[added : added+delta])
		added += delta
		t := time.Now()
		res, err := se.Solve()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("+%d new", delta),
			secs(res.Times.Solve), secs(time.Since(t)),
		})
	}
	return rep, nil
}

// ExpFigure6c regenerates Figure 6(c): the time to produce five
// representative points of the Pareto-optimal curve for a soft storage
// constraint (λ ∈ {0, 0.25, 0.5, 0.75, 1}). Paper shape: the first
// point pays the full solve (~294 s); each subsequent point reuses the
// computation and costs a fraction (11–16 s) — about 4× cheaper than
// naive recomputation overall.
func ExpFigure6c(g *Grid) (*Report, error) {
	cfg := g.cfg
	rep := &Report{
		ID:     "Figure 6(c)",
		Title:  "Pareto-curve generation for a soft storage constraint (W_hom_1000)",
		Header: []string{"lambda", "solve time", "workload cost", "index storage (MB)"},
		Notes: []string{
			"paper (seconds): 293.5 / 12.1 / 16.2 / 12.5 / 11 for λ = 0…1",
			"expected shape: first point costs a cold solve; later points reuse duals and incumbents",
		},
	}
	e := newEnv(0, engine.SystemA())
	w := cfg.hom(1000)
	ad := e.cophyAdvisor(cfg)
	s := cophy.Candidates(e.cat, w, cophy.CGenOptions{Covering: true})
	points, times, err := ad.SoftStorageSweep(w, s, cophy.NoConstraints(), 0, []float64{0, 0.25, 0.5, 0.75, 1})
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.2f", p.Lambda),
			secs(p.SolveTime),
			fmt.Sprintf("%.0f", p.Cost),
			fmt.Sprintf("%.1f", p.SizeBytes/(1<<20)),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("shared INUM %.2fs + build %.2fs paid once", times.INUM.Seconds(), times.Build.Seconds()))
	return rep, nil
}
