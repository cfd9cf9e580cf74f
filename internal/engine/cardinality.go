package engine

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// predSel returns the selectivity of one predicate from the owning
// column's histogram. Equality predicates use the position-aware
// estimate so that skewed data (Zipf z > 0) yields position-dependent
// selectivities, exactly the effect the paper's z = 2 experiments
// exercise.
func (e *Engine) predSel(p workload.Predicate) float64 {
	_, col, err := e.Cat.Column(p.Col)
	if err != nil {
		return 1
	}
	var sel float64
	switch p.Op {
	case workload.OpEq:
		sel = col.Hist.EqFracAt(p.Lo, col.NDV)
	case workload.OpRange:
		sel = col.Hist.RangeFrac(p.Lo, p.Hi)
	case workload.OpLt:
		sel = col.Hist.LessFrac(p.Hi)
	case workload.OpGt:
		sel = 1 - col.Hist.LessFrac(p.Lo)
	default:
		sel = 1
	}
	return clampSel(sel)
}

// localSel returns the combined selectivity of all local predicates on
// the given table, assuming independence.
func (e *Engine) localSel(q *workload.Query, table string) float64 {
	sel := 1.0
	for _, p := range q.Preds {
		if p.Col.Table == table {
			sel *= e.predSel(p)
		}
	}
	return clampSel(sel)
}

// prefixSel returns the selectivity of the sargable prefix of index ix
// for query q: equality predicates binding a prefix of the key,
// optionally followed by one range predicate on the next key column.
// It also returns the number of key columns bound by equality and
// whether any key column is usable at all.
func (e *Engine) prefixSel(q *workload.Query, ix *catalog.Index) (sel float64, eqBound int, sargable bool) {
	// γ kernel hot path: scan the predicate list directly per key
	// column (tables carry a handful of predicates at most) instead of
	// materializing a per-call column map.
	sel = 1.0
	for _, k := range ix.Key {
		any, eq := false, false
		for i := range q.Preds {
			p := &q.Preds[i]
			if p.Col.Table != ix.Table || p.Col.Column != k {
				continue
			}
			any = true
			if p.Op == workload.OpEq {
				sel *= e.predSel(*p)
				eq = true
				sargable = true
				break
			}
		}
		if !any {
			break
		}
		if eq {
			eqBound++
			continue
		}
		// A non-equality predicate ends the prefix but still
		// restricts the scanned key range.
		for i := range q.Preds {
			p := &q.Preds[i]
			if p.Col.Table == ix.Table && p.Col.Column == k {
				sel *= e.predSel(*p)
			}
		}
		sargable = true
		break
	}
	return clampSel(sel), eqBound, sargable
}

// tableRows returns the base cardinality of a table.
func (e *Engine) tableRows(table string) float64 {
	t := e.Cat.Table(table)
	if t == nil {
		return 1
	}
	return float64(t.Rows)
}

// joinSel returns the selectivity of one equi-join condition using the
// standard 1/max(NDV_l, NDV_r) estimate.
func (e *Engine) joinSel(j workload.Join) float64 {
	_, lc, lerr := e.Cat.Column(j.Left)
	_, rc, rerr := e.Cat.Column(j.Right)
	if lerr != nil || rerr != nil {
		return 1
	}
	m := math.Max(float64(lc.NDV), float64(rc.NDV))
	if m < 1 {
		m = 1
	}
	return 1 / m
}

// joinRows returns the estimated cardinality of joining two
// intermediate results: the left covers the tables of mask, and conds
// are the right table's join conditions, of which those into mask
// connect the two.
func joinRows(leftRows, rightRows float64, conds []joinCond, mask int) float64 {
	rows := leftRows * rightRows
	for ci := range conds {
		if conds[ci].obit&mask != 0 {
			rows *= conds[ci].sel
		}
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// groupRows estimates the number of groups produced by grouping rows
// on the given columns, using the product of NDVs capped by the input
// cardinality.
func (e *Engine) groupRows(rows float64, groupBy []catalog.ColumnRef) float64 {
	ndv := 1.0
	for _, g := range groupBy {
		if _, col, err := e.Cat.Column(g); err == nil {
			ndv *= float64(col.NDV)
		}
	}
	// Cap: you cannot have more groups than rows; apply the standard
	// damping for multi-column grouping.
	groups := math.Min(ndv, rows/2+1)
	if groups < 1 {
		groups = 1
	}
	return groups
}

// ndvOf returns the NDV of a column reference, defaulting to 1.
func (e *Engine) ndvOf(ref catalog.ColumnRef) float64 {
	if _, col, err := e.Cat.Column(ref); err == nil {
		return float64(col.NDV)
	}
	return 1
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}
