package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// Engine is the simulated DBMS optimizer with a what-if interface.
// Engines are safe for concurrent use.
type Engine struct {
	// Cat is the database catalog (schema + statistics).
	Cat *catalog.Catalog
	// Prof holds the cost-model constants.
	Prof Profile

	whatIfCalls atomic.Int64
	slotCalls   atomic.Int64

	// memoPools recycles join-DP scratch per table count (index = number
	// of tables, capped by checkOptimizable). Reused memos keep their
	// slice capacities and the engine-scoped sort-cost cache, so a
	// workload's derivations stop paying allocation and GC for the DP
	// tables. Safe because the catalog and profile are immutable after
	// construction.
	memoPools [13]sync.Pool
}

// New returns an engine over the catalog with the given cost profile.
func New(cat *catalog.Catalog, prof Profile) *Engine {
	return &Engine{Cat: cat, Prof: prof}
}

// WhatIfCalls returns the number of what-if optimizations performed so
// far. Index advisors report this to compare their optimizer traffic
// (the expensive resource INUM was designed to conserve).
func (e *Engine) WhatIfCalls() int64 { return e.whatIfCalls.Load() }

// ResetWhatIfCalls zeroes the counter.
func (e *Engine) ResetWhatIfCalls() { e.whatIfCalls.Store(0) }

// SlotCostCalls returns the number of γ kernel evaluations (SlotCost
// calls) performed so far — the unit of work the dense CostMatrix
// compilation spends, reported alongside WhatIfCalls in advisor traffic
// breakdowns.
func (e *Engine) SlotCostCalls() int64 { return e.slotCalls.Load() }

// ResetSlotCostCalls zeroes the γ kernel counter.
func (e *Engine) ResetSlotCostCalls() { e.slotCalls.Store(0) }

// WhatIfPlan optimizes the query under the hypothetical configuration
// and returns the chosen physical plan. This is the what-if optimizer
// of §2: a normal optimization with "faked" index statistics.
func (e *Engine) WhatIfPlan(q *workload.Query, cfg *Config) (*Plan, error) {
	e.whatIfCalls.Add(1)
	return e.optimize(q, cfg, nil, false)
}

// WhatIfCost returns cost(q, X): the cost of the optimal plan for q
// when exactly the indexes in cfg are available.
func (e *Engine) WhatIfCost(q *workload.Query, cfg *Config) (float64, error) {
	p, err := e.WhatIfPlan(q, cfg)
	if err != nil {
		return 0, err
	}
	return p.Cost, nil
}

// ForcedPlan optimizes the query with per-table delivered-order
// requirements — the "plan forcing through hints" service INUM relies
// on (§4). A table present in forced with a non-empty order must be
// accessed in that order; a table present with an empty order must be
// accessed without repeated lookups; absent tables are unconstrained.
// It returns an error when no plan satisfies the requirements.
func (e *Engine) ForcedPlan(q *workload.Query, cfg *Config, forced map[string][]string) (*Plan, error) {
	e.whatIfCalls.Add(1)
	return e.optimize(q, cfg, forced, false)
}

// TemplatePlan optimizes like ForcedPlan but in template mode: the
// plan may exploit only the forced leaf orders, never incidental ones,
// so INUM can lift it into a template whose slot requirements are
// exactly the orders its internal operators consume.
func (e *Engine) TemplatePlan(q *workload.Query, cfg *Config, forced map[string][]string) (*Plan, error) {
	e.whatIfCalls.Add(1)
	return e.optimize(q, cfg, forced, true)
}

// TemplateCtx carries the derivation state shared across the many
// TemplatePlan calls one template extraction makes for a single query
// under a single configuration: access paths, join conditions, lookup
// leaves and sort wrappers are all independent of the forced-order map
// and are computed once instead of once per call. A TemplateCtx is not
// safe for concurrent use; derive each query on one goroutine.
type TemplateCtx struct {
	e    *Engine
	memo *joinMemo
	err  error
}

// NewTemplateCtx prepares a derivation context for q under cfg.
func (e *Engine) NewTemplateCtx(q *workload.Query, cfg *Config) *TemplateCtx {
	tc := &TemplateCtx{e: e}
	if err := checkOptimizable(q); err != nil {
		tc.err = err
		return tc
	}
	tc.memo = e.getMemo(q, cfg)
	return tc
}

// TemplatePlan runs one template-mode optimization against the shared
// context. It counts as a what-if optimizer call, exactly like
// Engine.TemplatePlan.
func (tc *TemplateCtx) TemplatePlan(forced map[string][]string) (*Plan, error) {
	tc.e.whatIfCalls.Add(1)
	if tc.err != nil {
		return nil, tc.err
	}
	if tc.memo == nil {
		return nil, fmt.Errorf("engine: TemplateCtx used after Close")
	}
	return tc.e.optimizeMemo(tc.memo, forced, true)
}

// Close recycles the context's derivation scratch. Call it once no
// further TemplatePlan calls will be made; plans already returned
// remain valid.
func (tc *TemplateCtx) Close() {
	if tc.memo != nil {
		tc.e.putMemo(tc.memo)
		tc.memo = nil
	}
}

func checkOptimizable(q *workload.Query) error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("engine: query %s references no tables", q.ID)
	}
	if len(q.Tables) > 12 {
		return fmt.Errorf("engine: query %s joins %d tables; limit is 12", q.ID, len(q.Tables))
	}
	return nil
}

// optimize runs access-path selection, join ordering and finalization.
func (e *Engine) optimize(q *workload.Query, cfg *Config, forced map[string][]string, templateMode bool) (*Plan, error) {
	if err := checkOptimizable(q); err != nil {
		return nil, err
	}
	m := e.getMemo(q, cfg)
	p, err := e.optimizeMemo(m, forced, templateMode)
	e.putMemo(m)
	return p, err
}

// optimizeMemo is the memo-sharing core of optimize: join ordering
// over the context's cached inputs, then finalization of the cheapest
// entry. Finalized costs are computed arithmetically for every entry
// (finalizeCost) and only the winner's operator nodes are built.
func (e *Engine) optimizeMemo(m *joinMemo, forced map[string][]string, templateMode bool) (*Plan, error) {
	full := e.optimizeJoin(m, forced, templateMode)
	if full == nil {
		return nil, fmt.Errorf("engine: no plan for query %s under forced orders", m.q.ID)
	}
	bi := -1
	var bestCost float64
	for i := range full.ents {
		en := &full.ents[i]
		fc := e.finalizeCost(m, en.cost, en.rows, en.width, en.order)
		if bi < 0 || fc < bestCost {
			bi, bestCost = i, fc
		}
	}
	root := m.materialize((1<<len(m.tables))-1, bi)
	fin := e.finalize(m, root)
	return &Plan{Root: fin, Cost: fin.Cost}, nil
}

// finalizeCost prices finalize over a join result given only its
// scalars (cost, cardinality, width, delivered order), without building
// any operator node — the allocation gate for the per-entry argmin in
// optimizeMemo. Every arithmetic step mirrors finalize exactly (same
// operations in the same association order), which
// TestFinalizeCostMatchesFinalize pins bit-for-bit.
func (e *Engine) finalizeCost(m *joinMemo, cost, rows, width float64, order []string) float64 {
	p := e.Prof
	q := m.q
	groupOrder, orderBy := m.finalOrders()

	if len(q.GroupBy) > 0 {
		groups := m.groupRowsFor(rows)
		if satisfiesOrder(order, groupOrder) {
			cost += rows * p.CPUOperatorCost
		} else {
			hashSelf := rows*p.CPUOperatorCost*2*p.HashFudge + groups*p.CPUOperatorCost
			if pages := groups * width / PageSizeF; pages > float64(p.MemoryPages) {
				hashSelf += pages * 2 * p.SeqPageCost
			}
			sortedCost := cost + m.sortCostFor(rows, width)
			streamSelf := rows * p.CPUOperatorCost
			if cost+hashSelf <= sortedCost+streamSelf {
				cost += hashSelf
				order = nil
			} else {
				cost = sortedCost + streamSelf
				order = groupOrder
			}
		}
		rows = groups
	} else if q.Aggregate {
		cost += rows * p.CPUOperatorCost
		rows = 1
		order = nil
	}

	if len(q.OrderBy) > 0 && !satisfiesOrder(order, orderBy) {
		cost += m.sortCostFor(rows, width)
	}
	return cost
}

// finalize applies grouping, aggregation and ordering on top of a join
// result.
func (e *Engine) finalize(m *joinMemo, root *PlanNode) *PlanNode {
	p := e.Prof
	q := m.q
	groupOrder, orderBy := m.finalOrders()

	if len(q.GroupBy) > 0 {
		groups := m.groupRowsFor(root.Rows)
		if satisfiesOrder(root.Order, groupOrder) {
			agg := &PlanNode{
				Op: OpStreamAgg, Children: []*PlanNode{root},
				Rows: groups, Width: root.Width, Order: root.Order,
				SelfCost: root.Rows * p.CPUOperatorCost,
			}
			agg.Cost = root.Cost + agg.SelfCost
			root = agg
		} else {
			// Choose the cheaper of hash aggregation and sort+stream.
			hashSelf := root.Rows*p.CPUOperatorCost*2*p.HashFudge + groups*p.CPUOperatorCost
			if pages := groups * root.Width / PageSizeF; pages > float64(p.MemoryPages) {
				hashSelf += pages * 2 * p.SeqPageCost
			}
			sorted := e.sortNode(root, groupOrder)
			streamSelf := root.Rows * p.CPUOperatorCost
			if root.Cost+hashSelf <= sorted.Cost+streamSelf {
				agg := &PlanNode{
					Op: OpHashAgg, Children: []*PlanNode{root},
					Rows: groups, Width: root.Width,
					SelfCost: hashSelf,
				}
				agg.Cost = root.Cost + agg.SelfCost
				root = agg
			} else {
				agg := &PlanNode{
					Op: OpStreamAgg, Children: []*PlanNode{sorted},
					Rows: groups, Width: root.Width, Order: sorted.Order,
					SelfCost: streamSelf,
				}
				agg.Cost = sorted.Cost + agg.SelfCost
				root = agg
			}
		}
	} else if q.Aggregate {
		agg := &PlanNode{
			Op: OpStreamAgg, Children: []*PlanNode{root},
			Rows: 1, Width: root.Width,
			SelfCost: root.Rows * p.CPUOperatorCost,
		}
		agg.Cost = root.Cost + agg.SelfCost
		root = agg
	}

	if len(q.OrderBy) > 0 && !satisfiesOrder(root.Order, orderBy) {
		root = e.sortNode(root, orderBy)
	}
	return root
}

// orderSatisfiedByKey reports whether required (qualified "table.col"
// elements) is a prefix of the order delivered by key columns of
// table, without materializing the qualified order — the allocation-
// free core of the γ kernel below.
func orderSatisfiedByKey(table string, key, required []string) bool {
	if len(required) > len(key) {
		return false
	}
	for i, r := range required {
		k := key[i]
		if len(r) != len(table)+1+len(k) || r[:len(table)] != table || r[len(table)] != '.' || r[len(table)+1:] != k {
			return false
		}
	}
	return true
}

// Access is what γ reads from one template slot: the query, the
// table, the slot's requirement (a delivered order for a scan, a probed
// column and probe count for a lookup) and the quantities every index's
// price on that slot shares — the table's rows and heap pages, the
// query's local selectivity there, a lookup's rows per probe. Build it
// once per slot with ScanAccess or LookupAccess, then price each access
// method with SlotCost. It reads the query only through its predicates'
// columns, operators and predSel values (localSel, prefixSel,
// probeRows, lookupUsable), all of which ShapeFingerprint records.
type Access struct {
	q        *workload.Query
	t        *catalog.Table // nil when the table is unknown
	needCols []string
	rows     float64
	pages    float64
	lsel     float64

	// order is a scan slot's required (qualified) order.
	order []string

	// lookup marks a repeated-lookup slot: lookups probes on joinCol,
	// each yielding rowsPerLookup rows from entries index entries.
	lookup                 bool
	joinCol                string
	lookups                float64
	rowsPerLookup, entries float64
}

// ScanAccess prepares a single-pass slot: reading table while
// delivering requiredOrder, touching needCols.
func (e *Engine) ScanAccess(q *workload.Query, table string, requiredOrder, needCols []string) Access {
	a := Access{q: q, t: e.Cat.Table(table), needCols: needCols, order: requiredOrder}
	if a.t != nil {
		a.rows, a.pages = float64(a.t.Rows), float64(a.t.Pages())
		a.lsel = e.localSel(q, table)
	}
	return a
}

// LookupAccess prepares a repeated-lookup slot: lookups probes on
// joinCol against table, touching needCols.
func (e *Engine) LookupAccess(q *workload.Query, table, joinCol string, lookups float64, needCols []string) Access {
	a := Access{q: q, t: e.Cat.Table(table), needCols: needCols, lookup: true, joinCol: joinCol, lookups: lookups}
	if a.t != nil {
		a.rowsPerLookup, a.entries = e.probeRows(q, a.t, joinCol)
	}
	return a
}

// IndexGeometry returns ix's page geometry over its table, or the zero
// geometry for the heap (nil) or an index on a table the catalog does
// not know — SlotCost never reads either.
func (e *Engine) IndexGeometry(ix *catalog.Index) catalog.Geometry {
	if ix != nil {
		if t := e.Cat.Table(ix.Table); t != nil {
			return ix.Geometry(t)
		}
	}
	return catalog.Geometry{}
}

// SlotCost is the γ kernel: the cost of implementing slot a with index
// ix (nil for the heap), whose page geometry is g (ix.Geometry over the
// slot's table; ignored for the heap). It returns ok=false when the
// access method cannot implement the slot — the γ = ∞ case of Lemma 1:
// an index on another table, a heap or an unusable index for a lookup,
// a scan that cannot deliver the required order.
//
// The dense CostMatrix compilation runs it once per (shape, template,
// slot, candidate) with a and g built once each; the single-statement
// path (inum's Cache.Cost) runs it per configuration index. It allocates
// nothing, and prices the access with the very functions scanPaths and
// lookupLeaf build the optimizer's leaves from (indexScans,
// fullPassCost, probeCost), which TestSlotCostMatchesAccessPaths holds
// it to bit for bit.
func (e *Engine) SlotCost(a *Access, ix *catalog.Index, g catalog.Geometry) (float64, bool) {
	e.slotCalls.Add(1)
	if a.t == nil {
		return 0, false
	}
	if a.lookup {
		if ix == nil || ix.Table != a.t.Name || !lookupUsable(a.q, ix, a.joinCol) {
			return 0, false
		}
		return a.lookups * e.probeCost(ix, g, a.rowsPerLookup, a.entries, a.needCols) * e.Prof.NLFudge, true
	}
	if ix == nil {
		// Heap sequential scan: always available, never ordered.
		if len(a.order) > 0 {
			return 0, false
		}
		return e.Prof.fullPassCost(a.pages, a.rows), true
	}
	if ix.Table != a.t.Name {
		return 0, false
	}
	scans, n, _ := e.indexScans(a, ix, g)
	best := math.Inf(1)
	for _, s := range scans[:n] {
		if s.cost < best && orderSatisfiedByKey(a.t.Name, s.order, a.order) {
			best = s.cost
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// UpdateCost returns ucost(a, q): the independent maintenance cost
// index a incurs for update statement u (§2). Unaffected indexes cost
// zero.
func (e *Engine) UpdateCost(u *workload.Update, ix *catalog.Index) float64 {
	if !u.Affects(ix) {
		return 0
	}
	t := e.Cat.Table(u.Table)
	if t == nil {
		return 0
	}
	shell := u.Shell()
	affected := e.tableRows(u.Table) * e.localSel(shell, u.Table)
	if affected < 1 {
		affected = 1
	}
	p := e.Prof
	height := float64(ix.Height(t))
	// Each modified row descends the index and rewrites one leaf entry
	// (delete + insert for key changes).
	return affected * (height*p.RandPageCost + 2*p.CPUIndexTupleCost + p.CPUOperatorCost)
}

// BaseUpdateCost returns c_q: the cost to update the base tuples of u,
// independent of any index choice.
func (e *Engine) BaseUpdateCost(u *workload.Update) float64 {
	shell := u.Shell()
	affected := e.tableRows(u.Table) * e.localSel(shell, u.Table)
	if affected < 1 {
		affected = 1
	}
	p := e.Prof
	return affected * (p.RandPageCost + p.CPUTupleCost)
}

// StatementCost returns the full cost of one workload statement under
// configuration cfg: for queries, cost(q, X); for updates, the query
// shell cost plus per-index maintenance plus the base-tuple cost.
func (e *Engine) StatementCost(s *workload.Statement, cfg *Config) (float64, error) {
	if s.Query != nil {
		return e.WhatIfCost(s.Query, cfg)
	}
	u := s.Update
	c, err := e.WhatIfCost(u.Shell(), cfg)
	if err != nil {
		return 0, err
	}
	for _, ix := range cfg.Indexes() {
		c += e.UpdateCost(u, ix)
	}
	return c + e.BaseUpdateCost(u), nil
}

// WorkloadCost returns Σ f_q · cost(q, X) over the workload — the
// objective of the index tuning problem, evaluated against the
// optimizer's ground truth.
func (e *Engine) WorkloadCost(w *workload.Workload, cfg *Config) (float64, error) {
	var sum float64
	for _, s := range w.Statements {
		c, err := e.StatementCost(s, cfg)
		if err != nil {
			return 0, err
		}
		sum += s.Weight * c
	}
	return sum, nil
}
