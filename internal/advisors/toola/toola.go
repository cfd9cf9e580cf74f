// Package toola models the commercial index advisor "Tool-A" of the
// paper's evaluation, which (per §5.1) employs the relaxation-based
// approach of Bruno & Chaudhuri (SIGMOD 2005): start from the union of
// per-query optimal configurations, then repeatedly apply the cheapest
// relaxation — merging two indexes of a table or removing an index —
// until the storage budget holds. The tool drives the what-if
// optimizer directly (no INUM), so its cost grows steeply with
// workload size; a what-if call budget models the timeouts the paper
// observed (Table 1: "Tool-A timed out"). When the budget runs out the
// tool degrades to crude size-based eviction, which is exactly the
// quality collapse Figure 7 shows on large workloads.
package toola

import (
	"math"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// perQueryIndexes caps the candidates admitted per query during the
// seeding phase: commercial advisors prune aggressively (the paper
// traced Tool-A at 170 candidates).
const perQueryIndexes = 3

// maxRelaxations caps the relaxation steps.
const maxRelaxations = 500

// Options tune Tool-A.
type Options struct {
	// WhatIfBudget caps optimizer calls; 0 means 80000. Exceeding it
	// sets TimedOut and switches to crude eviction.
	WhatIfBudget int64
}

// Advisor is the Tool-A model.
type Advisor struct {
	Cat  *catalog.Catalog
	Eng  *engine.Engine
	Opts Options
}

// New returns a Tool-A advisor.
func New(cat *catalog.Catalog, eng *engine.Engine, opts Options) *Advisor {
	if opts.WhatIfBudget <= 0 {
		opts.WhatIfBudget = 80000
	}
	return &Advisor{Cat: cat, Eng: eng, Opts: opts}
}

// Result is the recommendation plus bookkeeping.
type Result struct {
	Indexes     []*catalog.Index
	Duration    time.Duration
	WhatIfCalls int64
	// TimedOut reports that the what-if budget was exhausted and the
	// final steps fell back to size-based eviction.
	TimedOut bool
	// Candidates is the number of candidate indexes the tool examined.
	Candidates int
}

// Recommend runs the relaxation-based tuning.
func (ad *Advisor) Recommend(w *workload.Workload, budgetBytes float64) (*Result, error) {
	start := time.Now()
	calls0 := ad.Eng.WhatIfCalls()
	budgetLeft := func() bool { return ad.Eng.WhatIfCalls()-calls0 < ad.Opts.WhatIfBudget }

	baseline := engine.NewConfig(ad.Cat.PrimaryKeyIndexes()...)

	// Phase 1: per-query seeding. For each query, greedily add the
	// candidate that reduces its what-if cost the most.
	current := map[string]*catalog.Index{}
	candidateCount := 0
	queries := w.Queries()
	for _, st := range queries {
		if !budgetLeft() {
			break
		}
		q := st.Query
		cands := perQueryCandidates(q)
		candidateCount += len(cands)
		chosen := engine.NewConfig()
		best, err := ad.Eng.WhatIfCost(q, baseline)
		if err != nil {
			continue
		}
		for picks := 0; picks < perQueryIndexes && budgetLeft(); picks++ {
			var bestIx *catalog.Index
			bestCost := best
			for _, ix := range cands {
				if chosen.Has(ix) {
					continue
				}
				c, err := ad.Eng.WhatIfCost(q, baseline.Union(chosen).Union(engine.NewConfig(ix)))
				if err != nil {
					continue
				}
				if c < bestCost*(1-1e-6) {
					bestCost = c
					bestIx = ix
				}
			}
			if bestIx == nil {
				break
			}
			chosen.Add(bestIx)
			best = bestCost
		}
		for _, ix := range chosen.Indexes() {
			current[ix.ID()] = ix
		}
	}

	// Phase 2: relaxation until the budget holds.
	timedOut := false
	for iter := 0; iter < maxRelaxations; iter++ {
		if ad.sizeOf(current) <= budgetBytes {
			break
		}
		if !budgetLeft() {
			timedOut = true
			break
		}
		if !ad.relaxOnce(w, baseline, current, budgetLeft) {
			timedOut = !budgetLeft()
			break
		}
	}

	// Crude eviction if still over budget (timeout path).
	if ad.sizeOf(current) > budgetBytes {
		var ixs []*catalog.Index
		for _, ix := range current {
			ixs = append(ixs, ix)
		}
		sort.Slice(ixs, func(i, j int) bool {
			return ad.bytesOf(ixs[i]) > ad.bytesOf(ixs[j])
		})
		for _, ix := range ixs {
			if ad.sizeOf(current) <= budgetBytes {
				break
			}
			delete(current, ix.ID())
		}
	}

	res := &Result{
		Duration:    time.Since(start),
		WhatIfCalls: ad.Eng.WhatIfCalls() - calls0,
		TimedOut:    timedOut,
		Candidates:  candidateCount,
	}
	for _, ix := range current {
		res.Indexes = append(res.Indexes, ix)
	}
	catalog.SortIndexes(res.Indexes)
	return res, nil
}

// relaxOnce evaluates removal and merge relaxations on the current
// configuration and applies the one with the smallest workload-cost
// penalty per byte reclaimed. Returns false when no relaxation exists.
func (ad *Advisor) relaxOnce(w *workload.Workload, baseline *engine.Config, current map[string]*catalog.Index, budgetLeft func() bool) bool {
	type move struct {
		remove  []*catalog.Index
		add     *catalog.Index
		penalty float64 // Δcost / bytes saved
	}
	var ixs []*catalog.Index
	for _, ix := range current {
		ixs = append(ixs, ix)
	}
	catalog.SortIndexes(ixs)

	// Score a relaxation on the statements that touch its table,
	// sampling at most affectedSample of them to bound the per-move
	// what-if traffic (the real tool caches aggressively; sampling
	// plays the same role here).
	const affectedSample = 32
	affectedCost := func(cfg *engine.Config, table string) float64 {
		var sum float64
		seen := 0
		for _, st := range w.Statements {
			q := st.Query
			if q == nil {
				q = st.Update.Shell()
			}
			if !q.References(table) {
				continue
			}
			seen++
			if seen > affectedSample {
				break
			}
			c, err := ad.Eng.WhatIfCost(q, cfg)
			if err != nil {
				continue
			}
			sum += st.Weight * c
		}
		return sum
	}
	cfgOf := func(skip map[string]bool, extra *catalog.Index) *engine.Config {
		cfg := baseline.Union(nil)
		for id, ix := range current {
			if !skip[id] {
				cfg.Add(ix)
			}
		}
		if extra != nil {
			cfg.Add(extra)
		}
		return cfg
	}

	// beforeOf is each table's affected cost under the current
	// configuration, which no move changes until one is applied.
	beforeOf := map[string]float64{}
	best := move{penalty: math.Inf(1)}
	for i, ix := range ixs {
		if !budgetLeft() {
			return false
		}
		table := ix.Table
		before, ok := beforeOf[table]
		if !ok {
			before = affectedCost(cfgOf(nil, nil), table)
			beforeOf[table] = before
		}
		// Removal.
		after := affectedCost(cfgOf(map[string]bool{ix.ID(): true}, nil), table)
		saved := float64(ad.bytesOf(ix))
		if saved > 0 {
			p := (after - before) / saved
			if p < best.penalty {
				best = move{remove: []*catalog.Index{ix}, penalty: p}
			}
		}
		// Merge with a same-table sibling.
		for j := i + 1; j < len(ixs); j++ {
			other := ixs[j]
			if other.Table != table {
				continue
			}
			merged := mergeIndexes(ix, other)
			savedM := float64(ad.bytesOf(ix)+ad.bytesOf(other)) - float64(ad.bytesOf(merged))
			if savedM <= 0 {
				continue
			}
			afterM := affectedCost(cfgOf(map[string]bool{ix.ID(): true, other.ID(): true}, merged), table)
			p := (afterM - before) / savedM
			if p < best.penalty {
				best = move{remove: []*catalog.Index{ix, other}, add: merged, penalty: p}
			}
		}
	}
	if math.IsInf(best.penalty, 1) {
		return false
	}
	for _, ix := range best.remove {
		delete(current, ix.ID())
	}
	if best.add != nil {
		current[best.add.ID()] = best.add
	}
	return true
}

// mergeIndexes builds the index-merging relaxation: the first index's
// key followed by the second's missing key columns, with merged
// includes.
func mergeIndexes(a, b *catalog.Index) *catalog.Index {
	key := append([]string(nil), a.Key...)
	have := map[string]bool{}
	for _, k := range key {
		have[k] = true
	}
	for _, k := range b.Key {
		if !have[k] {
			have[k] = true
			key = append(key, k)
		}
	}
	var inc []string
	for _, c := range append(append([]string(nil), a.Include...), b.Include...) {
		if !have[c] {
			have[c] = true
			inc = append(inc, c)
		}
	}
	sort.Strings(inc)
	return &catalog.Index{Table: a.Table, Key: key, Include: inc}
}

func (ad *Advisor) bytesOf(ix *catalog.Index) int64 {
	t := ad.Cat.Table(ix.Table)
	if t == nil {
		return 0
	}
	return ix.Bytes(t)
}

func (ad *Advisor) sizeOf(current map[string]*catalog.Index) float64 {
	// Integer accumulation keeps the sum exact regardless of map
	// iteration order; converting once at the end cannot reorder it.
	var sum int64
	for _, ix := range current {
		sum += ad.bytesOf(ix)
	}
	return float64(sum)
}

// perQueryCandidates derives the small per-query candidate set the
// tool seeds from: one index per predicate/join column, one
// multi-column sargable composite per table, and a covering variant of
// the most selective access (commercial advisors propose covering
// indexes too — they just consider far fewer of them than CGen).
func perQueryCandidates(q *workload.Query) []*catalog.Index {
	var out []*catalog.Index
	for _, table := range q.Tables {
		var eq, rng []string
		for _, p := range q.PredsOf(table) {
			if p.Op == workload.OpEq {
				eq = append(eq, p.Col.Column)
			} else {
				rng = append(rng, p.Col.Column)
			}
		}
		need := q.ColumnsOf(table)
		cover := func(key []string) *catalog.Index {
			inKey := map[string]bool{}
			for _, k := range key {
				inKey[k] = true
			}
			var inc []string
			for _, c := range need {
				if !inKey[c] {
					inc = append(inc, c)
				}
			}
			sort.Strings(inc)
			return &catalog.Index{Table: table, Key: key, Include: inc}
		}
		for _, c := range append(append([]string{}, eq...), rng...) {
			out = append(out, &catalog.Index{Table: table, Key: []string{c}})
		}
		for _, jc := range q.JoinColsOf(table) {
			out = append(out, &catalog.Index{Table: table, Key: []string{jc}})
			out = append(out, cover([]string{jc}))
		}
		if len(eq) > 0 && len(rng) > 0 {
			key := append(append([]string{}, eq...), rng[0])
			out = append(out, &catalog.Index{Table: table, Key: key})
			out = append(out, cover(key))
		} else if len(rng) > 0 {
			out = append(out, cover([]string{rng[0]}))
		} else if len(eq) > 0 {
			out = append(out, cover(eq))
		}
	}
	// Deduplicate.
	seen := map[string]bool{}
	var dedup []*catalog.Index
	for _, ix := range out {
		if !seen[ix.ID()] {
			seen[ix.ID()] = true
			dedup = append(dedup, ix)
		}
	}
	return dedup
}
