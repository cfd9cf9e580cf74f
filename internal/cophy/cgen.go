// Package cophy implements the CoPhy index advisor (§4 of the paper):
// candidate generation (CGen), construction of the compact BIP of
// Theorem 1 (BIPGen), the Solver with its Lagrangian relax(B) step,
// the constraint language of Appendix E, soft constraints with
// Chord-approximated Pareto curves, continuous optimality-gap feedback
// for early termination, and warm-started interactive re-tuning.
package cophy

import (
	"math/rand"
	"sort"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// CGenOptions tune candidate generation.
type CGenOptions struct {
	// MaxKeyCols caps composite key width (default 3).
	MaxKeyCols int
	// Covering adds covering variants (key + INCLUDE of the query's
	// remaining columns). Default on.
	Covering bool
	// DBA holds administrator-supplied candidates (S_DBA) merged into
	// the result.
	DBA []*catalog.Index
}

// Candidates implements CGen: it examines every statement of the
// workload and emits a large per-query candidate set from the
// referenced columns, without aggressive pruning — CoPhy delegates
// pruning to the solver (§4). The union is deduplicated and returned
// in deterministic order.
//
// A statement's candidates depend only on its structure
// (workload.Query.StructureKey), never on its constants, so each
// distinct structure is expanded once: the result is a function of the
// set of structures in the workload, not of statement count or order.
func Candidates(cat *catalog.Catalog, w *workload.Workload, opts CGenOptions) []*catalog.Index {
	if opts.MaxKeyCols <= 0 {
		opts.MaxKeyCols = 3
	}
	set := make(map[string]*catalog.Index)
	add := func(ix *catalog.Index) {
		if ix == nil || len(ix.Key) == 0 {
			return
		}
		if t := cat.Table(ix.Table); t != nil {
			for _, k := range ix.Key {
				if t.Column(k) == nil {
					return
				}
			}
		} else {
			return
		}
		set[ix.ID()] = ix
	}

	structures := make(map[string]bool)
	for _, s := range w.Queries() {
		k := s.Query.StructureKey()
		if structures[k] {
			continue
		}
		structures[k] = true
		perQueryCandidates(s.Query, opts, add)
	}
	for _, ix := range opts.DBA {
		add(ix)
	}

	out := make([]*catalog.Index, 0, len(set))
	for _, ix := range set {
		out = append(out, ix)
	}
	catalog.SortIndexes(out)
	return out
}

// perQueryCandidates emits the candidates suggested by one query,
// following the standard heuristics from the literature: indexes on
// predicate columns (equality prefix + one range column), join
// columns, group-by and order-by sequences, and covering variants.
func perQueryCandidates(q *workload.Query, opts CGenOptions, add func(*catalog.Index)) {
	for _, table := range q.Tables {
		var eqCols, rangeCols []string
		seenPred := map[string]bool{}
		for _, p := range q.PredsOf(table) {
			c := p.Col.Column
			if seenPred[c] {
				continue
			}
			seenPred[c] = true
			if p.Op == workload.OpEq {
				eqCols = append(eqCols, c)
			} else {
				rangeCols = append(rangeCols, c)
			}
		}
		joinCols := q.JoinColsOf(table)
		var groupCols, orderCols []string
		for _, g := range q.GroupBy {
			if g.Table == table {
				groupCols = append(groupCols, g.Column)
			}
		}
		for _, o := range q.OrderBy {
			if o.Table == table {
				orderCols = append(orderCols, o.Column)
			}
		}
		needCols := q.ColumnsOf(table)

		emit := func(key []string) {
			if len(key) == 0 {
				return
			}
			if len(key) > opts.MaxKeyCols {
				key = key[:opts.MaxKeyCols]
			}
			key = dedupeCols(key)
			add(&catalog.Index{Table: table, Key: key})
			if opts.Covering {
				inc := subtractCols(needCols, key)
				if len(inc) > 0 {
					add(&catalog.Index{Table: table, Key: key, Include: inc})
				}
			}
		}

		// Single-column indexes on every interesting column.
		for _, c := range eqCols {
			emit([]string{c})
		}
		for _, c := range rangeCols {
			emit([]string{c})
		}
		for _, c := range joinCols {
			emit([]string{c})
		}

		// Equality prefix plus one range column (classic sargable
		// composite).
		for _, rc := range rangeCols {
			emit(append(append([]string{}, eqCols...), rc))
		}
		if len(eqCols) > 1 {
			emit(eqCols)
		}

		// Join column compositions: join col first (for lookups) and
		// eq-prefix first (for sargable scans ending at the join col).
		for _, jc := range joinCols {
			if len(eqCols) > 0 {
				emit(append([]string{jc}, eqCols...))
				emit(append(append([]string{}, eqCols...), jc))
			}
			for _, rc := range rangeCols {
				emit([]string{jc, rc})
			}
		}

		// Order-exploiting indexes.
		emit(groupCols)
		emit(orderCols)
		if len(groupCols) > 0 && len(eqCols) > 0 {
			emit(append(append([]string{}, eqCols...), groupCols...))
		}
		if len(orderCols) > 0 && len(eqCols) > 0 {
			emit(append(append([]string{}, eqCols...), orderCols...))
		}
	}
}

// dedupeCols removes duplicate columns preserving first occurrence.
func dedupeCols(cols []string) []string {
	seen := make(map[string]bool, len(cols))
	out := cols[:0:0]
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// subtractCols returns cols minus the key columns, sorted for
// deterministic index identities.
func subtractCols(cols, key []string) []string {
	inKey := make(map[string]bool, len(key))
	for _, k := range key {
		inKey[k] = true
	}
	var out []string
	for _, c := range cols {
		if !inKey[c] {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// RandomIndexes generates n syntactically valid random indexes over
// the catalog — the S_L experiment of §5.3 pads the candidate set with
// random indexes to stress solver scalability.
func RandomIndexes(cat *catalog.Catalog, n int, seed int64) []*catalog.Index {
	r := rand.New(rand.NewSource(seed))
	tables := cat.Tables()
	set := make(map[string]*catalog.Index, n)
	for attempts := 0; len(set) < n && attempts < n*50; attempts++ {
		t := tables[r.Intn(len(tables))]
		width := 1 + r.Intn(3)
		perm := r.Perm(len(t.Cols))
		key := make([]string, 0, width)
		for _, ci := range perm[:min(width, len(perm))] {
			key = append(key, t.Cols[ci].Name)
		}
		ix := &catalog.Index{Table: t.Name, Key: key}
		set[ix.ID()] = ix
	}
	out := make([]*catalog.Index, 0, len(set))
	for _, ix := range set {
		out = append(out, ix)
	}
	catalog.SortIndexes(out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}
