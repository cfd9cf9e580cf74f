package experiments

import (
	"fmt"

	"repro/internal/advisors/ilp"
	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
)

// ilpCell is one CoPhy-vs-ILP timing run of §5.3 on W_hom (System-A,
// z = 0, M = 1): the paper's workload size and candidate-set size. A
// cands of 0 is S_ALL; Figure 5's other sets are S_ALL cut to a paper
// size or, at sL, padded to it.
type ilpCell struct{ size, cands int }

// sL is the size of the padded candidate set S_L of §5.3.
const sL = 10000

// ilpOutcome is what one ilpCell measured.
type ilpOutcome struct {
	cands int      // |S|
	cols  []string // ILP inum/build/solve/total, then CoPhy's
}

// run advises cold with the ILP baseline and CoPhy: fresh caches per
// advisor, so the figures report end-to-end runs.
func (c ilpCell) run(cfg Config) (ilpOutcome, error) {
	e := newEnv(0, engine.SystemA())
	w := cfg.hom(c.size)
	s := cophy.Candidates(e.cat, w, cophy.CGenOptions{Covering: true})
	switch c.cands {
	case 0:
	case sL:
		s = padded(e.cat, s, cfg.size(sL), cfg.Seed)
	default:
		s = s[:min(len(s), cfg.size(c.cands))]
	}
	ir, err := ilp.New(e.cat, e.eng, nil, ilp.Options{GapTol: cfg.GapTol}).Recommend(w, s, e.budget(1))
	if err != nil {
		return ilpOutcome{}, err
	}
	co, err := e.recommend(cfg, w, s, 1)
	if err != nil {
		return ilpOutcome{}, err
	}
	return ilpOutcome{cands: len(s), cols: []string{
		secs(ir.INUMTime), secs(ir.BuildTime), secs(ir.SolveTime), secs(ir.Total()),
		secs(co.Times.INUM), secs(co.Times.Build), secs(co.Times.Solve), secs(co.Times.Total()),
	}}, nil
}

var ilpHeader = []string{"ILP inum", "ILP build", "ILP solve", "ILP total", "CoPhy inum", "CoPhy build", "CoPhy solve", "CoPhy total"}

// ExpFigure5 regenerates Figure 5: CoPhy vs ILP execution time as the
// candidate set grows (S_500, S_1000, S_ALL, S_L≈10000). Paper shape:
// CoPhy roughly an order of magnitude faster at every size; ILP's time
// is dominated by its build phase (atomic-configuration enumeration
// and pruning); CoPhy scales gracefully to the padded 10K set. Its
// S_ALL row is Figure 10's 1000-statement row.
func ExpFigure5(g *Grid) (*Report, error) {
	rep := &Report{
		ID:     "Figure 5",
		Title:  "Execution time vs candidate-set size (W_hom_1000, M=1)",
		Header: append([]string{"|S|"}, ilpHeader...),
		Notes: []string{
			"paper (seconds): ILP 1560/1753/2419/8162 vs CoPhy 301/331/479/730",
			"expected shape: ILP ~an order of magnitude slower; ILP dominated by build time",
		},
	}
	for _, cands := range []int{500, 1000, 0, sL} {
		c := ilpCell{1000, cands}
		o, err := memo(g.ilps, c, func() (ilpOutcome, error) { return c.run(g.cfg) })
		if err != nil {
			return nil, err
		}
		label := fmt.Sprint(cands)
		if cands == 0 {
			label = fmt.Sprintf("S_ALL(%d)", o.cands)
		}
		rep.Rows = append(rep.Rows, append([]string{label}, o.cols...))
	}
	return rep, nil
}

// padded expands S_ALL with random indexes to the requested size (the
// S_L set of §5.3).
func padded(cat *catalog.Catalog, s []*catalog.Index, total int, seed int64) []*catalog.Index {
	if total <= len(s) {
		return s
	}
	have := make(map[string]bool, len(s))
	for _, ix := range s {
		have[ix.ID()] = true
	}
	out := append([]*catalog.Index(nil), s...)
	for _, ix := range cophy.RandomIndexes(cat, (total-len(s))*2, seed) {
		if len(out) >= total {
			break
		}
		if !have[ix.ID()] {
			have[ix.ID()] = true
			out = append(out, ix)
		}
	}
	catalog.SortIndexes(out)
	return out
}

// ExpFigure10 regenerates Figure 10 (Appendix C.2): CoPhy vs ILP as
// the workload grows. Paper shape (seconds): ILP 710/1379/2399 vs
// CoPhy 123/293/499 — at least 5× at every size, an order of magnitude
// ignoring the shared INUM time.
func ExpFigure10(g *Grid) (*Report, error) {
	rep := &Report{
		ID:     "Figure 10",
		Title:  "Execution time vs workload size: CoPhy vs ILP (S_ALL, M=1)",
		Header: append([]string{"queries"}, ilpHeader...),
		Notes: []string{
			"paper (seconds): ILP 710/1379/2399 vs CoPhy 123/293/499",
			"expected shape: ≥5× gap at every size; ILP build-dominated",
		},
	}
	for _, size := range paperSizes {
		c := ilpCell{size: size}
		o, err := memo(g.ilps, c, func() (ilpOutcome, error) { return c.run(g.cfg) })
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, append([]string{fmt.Sprint(g.cfg.size(size))}, o.cols...))
	}
	return rep, nil
}
