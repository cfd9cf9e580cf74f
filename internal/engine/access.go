package engine

import (
	"slices"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// satisfiesOrder reports whether a delivered sort order satisfies a
// required one, i.e. required is a prefix of delivered.
func satisfiesOrder(delivered, required []catalog.ColumnRef) bool {
	return len(required) <= len(delivered) && slices.Equal(delivered[:len(required)], required)
}

// keyDelivers reports whether required is a prefix of the order that
// key columns of table deliver, comparing each column's table and name.
func keyDelivers(table string, key []string, required []catalog.ColumnRef) bool {
	if len(required) > len(key) {
		return false
	}
	for i, r := range required {
		if r.Table != table || r.Column != key[i] {
			return false
		}
	}
	return true
}

// colsWidth sums the byte widths of the named columns of a table.
func (e *Engine) colsWidth(table string, cols []string) float64 {
	t := e.Cat.Table(table)
	if t == nil {
		return 16
	}
	w := 8.0
	for _, c := range cols {
		if col := t.Column(c); col != nil {
			w += float64(col.Width)
		}
	}
	return w
}

// fullPassCost is the cost of reading a table end to end, through the
// heap or through its clustered index.
func (p *Profile) fullPassCost(pages, rows float64) float64 {
	return pages*p.SeqPageCost + rows*p.CPUTupleCost
}

// fetchPerRow is the heap fetch a non-covering secondary index pays per
// row it returns.
func (p *Profile) fetchPerRow() float64 {
	return p.RandPageCost*(1-p.Correlation) + p.SeqPageCost*p.Correlation
}

// indexScan is one single-pass way to read a table through an index:
// its cost and the key columns whose order it delivers.
type indexScan struct {
	cost  float64
	order []string
}

// indexScans prices the single-pass accesses index ix, whose page
// geometry over the access's table is g, offers the access — the
// formulas' one statement: scanPaths wraps the results in PlanNodes for
// the optimizer, SlotCost takes their minimum as γ. A bound key prefix
// gives a range scan delivering the key order past the equality-bound
// columns. A secondary index can also be read end to end for its full
// key order (or covering projection) — useful to feed merge joins,
// stream aggregation or ORDER BY without a sort; a clustered index is
// read end to end only when no prefix is bound, at the heap scan's
// cost. covering reports whether the index answers the access's
// columns without heap fetches.
func (e *Engine) indexScans(a *Access, ix *catalog.Index, g catalog.Geometry) (scans [2]indexScan, n int, covering bool) {
	p := &e.Prof
	rows, pages := a.rows, a.pages
	sel, eqBound, sargable := e.prefixSel(a.q, ix)
	matchRows := rows * sel
	if matchRows < 1 {
		matchRows = 1
	}
	if ix.Clustered {
		if sargable {
			scans[0] = indexScan{float64(g.Height)*p.RandPageCost + pages*sel*p.SeqPageCost + matchRows*p.CPUTupleCost, ix.Key[eqBound:]}
		} else {
			scans[0] = indexScan{p.fullPassCost(pages, rows), ix.Key}
		}
		return scans, 1, true
	}

	covering = ix.Covers(a.needCols)
	leafPages := float64(g.LeafPages)
	height := float64(g.Height)
	fetchPerRow := p.fetchPerRow()
	if sargable {
		c := height*p.RandPageCost + leafPages*sel*p.SeqPageCost + matchRows*p.CPUIndexTupleCost
		if !covering {
			c += matchRows * fetchPerRow
		}
		c += matchRows * p.CPUTupleCost // residual filters
		scans[n] = indexScan{c, ix.Key[eqBound:]}
		n++
	}
	c := leafPages*p.SeqPageCost + rows*p.CPUIndexTupleCost + rows*p.CPUTupleCost
	if !covering {
		c += rows * a.lsel * fetchPerRow
	}
	scans[n] = indexScan{c, ix.Key}
	return scans, n + 1, covering
}

// scanPaths enumerates the single-pass access paths for one table of a
// query under the given configuration: heap scan, clustered-index
// scans, and secondary index scans (covering or not). Every returned
// node is a complete, costed leaf.
func (e *Engine) scanPaths(q *workload.Query, table string, cfg *Config, needCols []string) []*PlanNode {
	a := e.ScanAccess(q, table, nil, needCols)
	if a.t == nil {
		return nil
	}
	outRows := a.rows * a.lsel
	if outRows < 1 {
		outRows = 1
	}
	width := e.colsWidth(table, needCols)

	// Heap sequential scan: always available, unordered.
	seq := &PlanNode{Op: OpSeqScan, Table: table, Rows: outRows, Width: width}
	seq.SelfCost = e.Prof.fullPassCost(a.pages, a.rows)
	seq.Cost = seq.SelfCost
	paths := []*PlanNode{seq}

	for _, ix := range cfg.OnTable(table) {
		scans, n, covering := e.indexScans(&a, ix, ix.Geometry(a.t))
		op := OpIndexScan
		switch {
		case ix.Clustered:
			op = OpClusteredScan
		case covering:
			op = OpIndexOnlyScan
		}
		for _, s := range scans[:n] {
			order := make([]catalog.ColumnRef, len(s.order))
			for i, c := range s.order {
				order[i] = catalog.ColumnRef{Table: table, Column: c}
			}
			paths = append(paths, &PlanNode{
				Op: op, Table: table, Index: ix, Rows: outRows, Width: width,
				Order: order, SelfCost: s.cost, Cost: s.cost,
			})
		}
	}
	return paths
}

// lookupUsable reports whether index ix supports point lookups on
// joinCol for query q: the join column must follow an equality-bound
// prefix of the key (possibly empty).
func lookupUsable(q *workload.Query, ix *catalog.Index, joinCol string) bool {
	for _, k := range ix.Key {
		if k == joinCol {
			return true
		}
		eq := false
		for i := range q.Preds {
			pr := &q.Preds[i]
			if pr.Col.Table == ix.Table && pr.Col.Column == k && pr.Op == workload.OpEq {
				eq = true
				break
			}
		}
		if !eq {
			break
		}
	}
	return false
}

// probeRows sizes one point lookup on joinCol of table t, whatever index
// serves it: the rows it yields after the query's local filters and the
// index entries it touches before them.
func (e *Engine) probeRows(q *workload.Query, t *catalog.Table, joinCol string) (rowsPerLookup, entries float64) {
	rows := float64(t.Rows)
	ndv := e.ndvOf(catalog.ColumnRef{Table: t.Name, Column: joinCol})
	rowsPerLookup = rows * e.localSel(q, t.Name) / ndv
	if rowsPerLookup < 1e-6 {
		rowsPerLookup = 1e-6
	}
	entries = rows / ndv
	if entries < 1 {
		entries = 1
	}
	return rowsPerLookup, entries
}

// probeCost is the cost of one such lookup through index ix, whose page
// geometry is g.
func (e *Engine) probeCost(ix *catalog.Index, g catalog.Geometry, rowsPerLookup, entries float64, needCols []string) float64 {
	p := &e.Prof
	per := float64(g.Height)*p.RandPageCost + entries*p.CPUIndexTupleCost + rowsPerLookup*p.CPUTupleCost
	if !(ix.Clustered || ix.Covers(needCols)) {
		per += rowsPerLookup * p.fetchPerRow()
	}
	return per
}

// lookupLeaf builds the repeated-lookup access leaf for the inner side
// of an index nested-loop join on joinCol. It returns nil when no
// index in the configuration supports point lookups on that column.
// The returned node's SelfCost is the *per-lookup* cost; the join
// construction scales it by the number of probes.
func (e *Engine) lookupLeaf(q *workload.Query, table string, cfg *Config, joinCol string, needCols []string) *PlanNode {
	t := e.Cat.Table(table)
	if t == nil {
		return nil
	}
	rowsPerLookup, entries := e.probeRows(q, t, joinCol)
	width := e.colsWidth(table, needCols)

	var best *PlanNode
	for _, ix := range cfg.OnTable(table) {
		if !lookupUsable(q, ix, joinCol) {
			continue
		}
		per := e.probeCost(ix, ix.Geometry(t), rowsPerLookup, entries, needCols)
		if best == nil || per < best.SelfCost {
			best = &PlanNode{
				Op: OpIndexLookup, Table: table, Index: ix,
				Rows: rowsPerLookup, Width: width, SelfCost: per, Cost: per,
			}
		}
	}
	return best
}
