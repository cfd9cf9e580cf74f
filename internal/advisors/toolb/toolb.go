// Package toolb models the commercial index advisor "Tool-B" of the
// paper's evaluation, which (per §5.1) follows the DB2 Design Advisor
// approach: compress the workload by random sampling, derive a small
// candidate set from the sample, estimate per-index benefits with the
// what-if optimizer, and pick greedily under the storage budget.
// Sampling is why Tool-B matches CoPhy on the homogeneous workload
// (fifteen templates — any sample covers them) yet falls far behind on
// the heterogeneous one (Figure 9), and why its candidate set is tiny
// (the paper traced 45 candidates).
package toolb

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// sampleSize is the workload-compression sample, in statements.
const sampleSize = 30

// perQueryIndexes caps the candidates admitted per sampled query.
const perQueryIndexes = 2

// Options tune Tool-B.
type Options struct {
	// Seed drives the sampling.
	Seed int64
}

// Advisor is the Tool-B model.
type Advisor struct {
	Cat  *catalog.Catalog
	Eng  *engine.Engine
	Opts Options
}

// New returns a Tool-B advisor.
func New(cat *catalog.Catalog, eng *engine.Engine, opts Options) *Advisor {
	return &Advisor{Cat: cat, Eng: eng, Opts: opts}
}

// Result is the recommendation plus bookkeeping.
type Result struct {
	Indexes     []*catalog.Index
	Duration    time.Duration
	WhatIfCalls int64
	// Candidates is the number of candidate indexes examined.
	Candidates int
	// SampledStatements is the compressed workload size.
	SampledStatements int
}

// Recommend runs compression → candidates → greedy knapsack.
func (ad *Advisor) Recommend(w *workload.Workload, budgetBytes float64) (*Result, error) {
	start := time.Now()
	calls0 := ad.Eng.WhatIfCalls()

	baseline := engine.NewConfig(ad.Cat.PrimaryKeyIndexes()...)

	// Workload compression by uniform sampling; weights are scaled so
	// the sample represents the full workload.
	r := rand.New(rand.NewSource(ad.Opts.Seed + 101))
	stmts := w.Statements
	sample := stmts
	if len(stmts) > sampleSize {
		perm := r.Perm(len(stmts))
		sample = make([]*workload.Statement, sampleSize)
		for i := 0; i < sampleSize; i++ {
			sample[i] = stmts[perm[i]]
		}
	}
	scale := float64(len(stmts)) / float64(len(sample))

	// Candidate generation from the sample only: predicate and join
	// columns plus one covering variant per (query, table) — a small
	// set compared to CGen's, which is the point.
	seen := map[string]*catalog.Index{}
	for _, st := range sample {
		q := st.Query
		if q == nil {
			q = st.Update.Shell()
		}
		n := 0
		for _, table := range q.Tables {
			need := q.ColumnsOf(table)
			var firstKey []string
			for _, p := range q.PredsOf(table) {
				if n >= perQueryIndexes*len(q.Tables) {
					break
				}
				ix := &catalog.Index{Table: table, Key: []string{p.Col.Column}}
				seen[ix.ID()] = ix
				if firstKey == nil {
					firstKey = ix.Key
				}
				n++
			}
			if jcs := q.JoinColsOf(table); len(jcs) > 0 {
				ix := &catalog.Index{Table: table, Key: []string{jcs[0]}}
				seen[ix.ID()] = ix
				if firstKey == nil {
					firstKey = ix.Key
				}
			}
			if firstKey != nil {
				inKey := map[string]bool{firstKey[0]: true}
				var inc []string
				for _, c := range need {
					if !inKey[c] {
						inc = append(inc, c)
					}
				}
				sort.Strings(inc)
				cov := &catalog.Index{Table: table, Key: firstKey, Include: inc}
				seen[cov.ID()] = cov
			}
		}
	}
	var cands []*catalog.Index
	for _, ix := range seen {
		cands = append(cands, ix)
	}
	catalog.SortIndexes(cands)

	// Per-index benefit over the sample.
	sampleCost := func(cfg *engine.Config) float64 {
		var sum float64
		for _, st := range sample {
			c, err := ad.Eng.StatementCost(st, cfg)
			if err != nil {
				continue
			}
			sum += st.Weight * c
		}
		return sum
	}
	base := sampleCost(baseline)
	type scored struct {
		ix      *catalog.Index
		benefit float64
		bytes   float64
	}
	var ranked []scored
	for _, ix := range cands {
		c := sampleCost(baseline.Union(engine.NewConfig(ix)))
		b := (base - c) * scale
		t := ad.Cat.Table(ix.Table)
		if b > 0 && t != nil {
			ranked = append(ranked, scored{ix: ix, benefit: b, bytes: float64(ix.Bytes(t))})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		return ranked[i].benefit/ranked[i].bytes > ranked[j].benefit/ranked[j].bytes
	})

	// Greedy knapsack with one marginal-benefit refinement pass.
	chosen := engine.NewConfig()
	var used float64
	cur := base
	for _, sc := range ranked {
		if used+sc.bytes > budgetBytes {
			continue
		}
		next := sampleCost(baseline.Union(chosen).Union(engine.NewConfig(sc.ix)))
		if next < cur*(1-1e-6) {
			chosen.Add(sc.ix)
			used += sc.bytes
			cur = next
		}
	}

	res := &Result{
		Indexes:           chosen.Indexes(),
		Duration:          time.Since(start),
		WhatIfCalls:       ad.Eng.WhatIfCalls() - calls0,
		Candidates:        len(cands),
		SampledStatements: len(sample),
	}
	return res, nil
}
