// Package ilp implements the ILP baseline of the paper's evaluation
// (§5.3): the BIP formulation of Papadomanolakis & Ailamaki, which
// assigns one variable per *atomic configuration* rather than per
// index. Because the number of atomic configurations grows with
// Π|S_i|, the technique must enumerate and prune configurations per
// query before the solver runs — and that build phase dominates its
// running time (Figures 5 and 10). Per the paper's fair-comparison
// setup, this implementation shares CoPhy's INUM cache (so what-if
// costs are equally cheap) and the same underlying solver.
package ilp

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/par"
	"repro/internal/workload"
)

// shortlist caps the candidate indexes considered per (query, table)
// during enumeration.
const shortlist = 8

// Options tune the ILP advisor.
type Options struct {
	// PerQuery caps the atomic configurations kept per query after
	// pruning by cost (default 20) — the pruning of [13] that keeps
	// the per-configuration BIP tractable.
	PerQuery int
	// GapTol is the solver stopping gap (default 0.05).
	GapTol float64
}

// Advisor is the ILP baseline.
type Advisor struct {
	Cat  *catalog.Catalog
	Eng  *engine.Engine
	Inum *inum.Cache
	Opts Options
}

// New builds the advisor sharing an existing INUM cache (pass nil to
// create a fresh one).
func New(cat *catalog.Catalog, eng *engine.Engine, cache *inum.Cache, opts Options) *Advisor {
	if opts.PerQuery <= 0 {
		opts.PerQuery = 20
	}
	if opts.GapTol <= 0 {
		opts.GapTol = 0.05
	}
	if cache == nil {
		cache = inum.New(eng)
	}
	return &Advisor{Cat: cat, Eng: eng, Inum: cache, Opts: opts}
}

// Result mirrors the CoPhy result shape: recommendation plus the
// INUM/build/solve breakdown.
type Result struct {
	Indexes   []*catalog.Index
	EstCost   float64
	Gap       float64
	INUMTime  time.Duration
	BuildTime time.Duration
	SolveTime time.Duration
	// Configs is the total number of atomic configurations enumerated
	// (before pruning), the quantity that explodes with |S|.
	Configs int
}

// Total returns the end-to-end time.
func (r *Result) Total() time.Duration { return r.INUMTime + r.BuildTime + r.SolveTime }

// config is one atomic configuration under evaluation.
type config struct {
	indexes []int32 // positions into S
	cost    float64
}

// Recommend runs the ILP pipeline: INUM preparation, per-query atomic
// configuration enumeration + pruning, per-configuration BIP
// construction, solve.
func (ad *Advisor) Recommend(w *workload.Workload, s []*catalog.Index, budgetBytes float64) (*Result, error) {
	t0 := time.Now()
	ad.Inum.Prepare(w)
	inumTime := time.Since(t0)

	t1 := time.Now()
	baseline := engine.NewConfig(ad.Cat.PrimaryKeyIndexes()...)

	m := lagrange.NewModel(len(s))
	for i, ix := range s {
		t := ad.Cat.Table(ix.Table)
		m.Size[i] = float64(ix.Bytes(t))
	}
	for _, st := range w.Updates() {
		u := st.Update
		m.Const += st.Weight * ad.Eng.BaseUpdateCost(u)
		for i, ix := range s {
			if c := ad.Eng.UpdateCost(u, ix); c > 0 {
				m.FixedCost[i] += st.Weight * c
			}
		}
	}
	m.Budget = budgetBytes

	// Enumeration runs over the dense γ matrix: each atomic
	// configuration is costed by a flat slab walk instead of a
	// map-probing inum.Cost call over a freshly allocated Config
	// union. Queries are independent, so they fan out across
	// GOMAXPROCS workers into preallocated block positions.
	mat := ad.Inum.CompileMatrix(w, s, baseline, 0)
	stmts := w.Queries()
	blocks := make([]lagrange.Block, len(stmts))
	configCounts := make([]int, len(stmts))
	errs := make([]error, len(stmts))
	workers := runtime.GOMAXPROCS(0)
	sels := make([][]bool, workers)
	for i := range sels {
		sels[i] = make([]bool, len(s))
	}
	par.ForWorker(len(stmts), workers, func(worker, bi int) {
		sel := sels[worker]
		st := stmts[bi]
		q := st.Query
		configs := ad.enumerate(q, s, mat.Query(q), sel)
		configCounts[bi] = len(configs)
		// Prune to the cheapest PerQuery configurations; always keep
		// the empty configuration so the model stays feasible.
		sort.Slice(configs, func(i, j int) bool { return configs[i].cost < configs[j].cost })
		if len(configs) > ad.Opts.PerQuery {
			configs = configs[:ad.Opts.PerQuery]
		}
		hasEmpty := false
		for _, c := range configs {
			if len(c.indexes) == 0 {
				hasEmpty = true
				break
			}
		}
		if !hasEmpty {
			if qm := mat.Query(q); qm != nil {
				if empty, ok := qm.Cost(sel); ok {
					configs = append(configs, config{cost: empty})
				}
			}
		}
		choices := make([]lagrange.Choice, len(configs))
		slotOf := map[int32]lagrange.Slot{} // one per index, per block: NewLayout writes its Group
		for ci, c := range configs {
			choices[ci].Fixed = c.cost
			for _, a := range c.indexes {
				if slotOf[a] == nil {
					slotOf[a] = lagrange.Slot{{Index: a}}
				}
				choices[ci].Slots = append(choices[ci].Slots, slotOf[a])
			}
		}
		l, err := lagrange.NewLayout(choices)
		if err != nil {
			errs[bi] = fmt.Errorf("ilp: %s: %w", q.ID, err)
			return
		}
		blocks[bi] = lagrange.Block{Weight: st.Weight}
		blocks[bi].SetLayout(l)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	totalConfigs := 0
	for _, n := range configCounts {
		totalConfigs += n
	}
	m.Blocks = blocks
	buildTime := time.Since(t1)

	t2 := time.Now()
	lr := lagrange.Solve(m, lagrange.Options{GapTol: ad.Opts.GapTol})
	solveTime := time.Since(t2)

	res := &Result{
		EstCost:   lr.Objective,
		Gap:       lr.Gap,
		INUMTime:  inumTime,
		BuildTime: buildTime,
		SolveTime: solveTime,
		Configs:   totalConfigs,
	}
	for i, on := range lr.Selected {
		if on {
			res.Indexes = append(res.Indexes, s[i])
		}
	}
	catalog.SortIndexes(res.Indexes)
	return res, nil
}

// enumerate builds the atomic configurations of one query: the
// cartesian product of per-table shortlists (plus "no index" per
// table), each costed through the dense γ matrix. This enumeration is
// ILP's signature expense. sel is a caller-owned scratch selection
// (len |S|); it is all-false on entry and restored all-false on exit.
func (ad *Advisor) enumerate(q *workload.Query, s []*catalog.Index, qm *inum.QueryMatrix, sel []bool) []config {
	if qm == nil {
		return []config{{cost: math.Inf(1)}}
	}
	// Shortlist per referenced table: candidates ranked by their
	// single-index benefit.
	type ranked struct {
		pos     int32
		benefit float64
	}
	base, ok := qm.Cost(sel)
	if !ok {
		return []config{{cost: math.Inf(1)}}
	}
	perTable := make([][]ranked, len(q.Tables))
	for ti, table := range q.Tables {
		var list []ranked
		for i, ix := range s {
			if ix.Table != table {
				continue
			}
			c, ok := qm.CostDelta(sel, int32(i))
			if !ok {
				continue
			}
			if b := base - c; b > 1e-9 {
				list = append(list, ranked{pos: int32(i), benefit: b})
			}
		}
		sort.Slice(list, func(i, j int) bool { return list[i].benefit > list[j].benefit })
		if len(list) > shortlist {
			list = list[:shortlist]
		}
		perTable[ti] = list
	}

	// Cartesian product (index or none per table), costed densely.
	var out []config
	var walk func(ti int, chosen []int32)
	walk = func(ti int, chosen []int32) {
		if len(out) >= 4096 {
			return // enumeration guard for pathological queries
		}
		if ti == len(q.Tables) {
			c, ok := qm.Cost(sel)
			if !ok {
				return
			}
			out = append(out, config{indexes: append([]int32(nil), chosen...), cost: c})
			return
		}
		walk(ti+1, chosen)
		for _, r := range perTable[ti] {
			sel[r.pos] = true
			walk(ti+1, append(chosen, r.pos))
			sel[r.pos] = false
		}
	}
	walk(0, nil)
	return out
}
