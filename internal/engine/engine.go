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
	memoPools [workload.MaxTables + 1]sync.Pool
}

// New returns an engine over the catalog with the given cost profile.
func New(cat *catalog.Catalog, prof Profile) *Engine {
	return &Engine{Cat: cat, Prof: prof}
}

// WhatIfCalls returns the number of what-if optimizations performed so
// far. Index advisors report this to compare their optimizer traffic
// (the expensive resource INUM was designed to conserve).
func (e *Engine) WhatIfCalls() int64 { return e.whatIfCalls.Load() }

// AddWhatIfCalls adds n to the what-if counter. Template-mode calls
// (TemplatePlan) do not count themselves; their caller adds its
// derivation's calls here at once, so concurrent derivations do not
// take turns on the shared counter once per call.
func (e *Engine) AddWhatIfCalls(n int64) { e.whatIfCalls.Add(n) }

// ResetWhatIfCalls zeroes the counter.
func (e *Engine) ResetWhatIfCalls() { e.whatIfCalls.Store(0) }

// SlotCostCalls returns the number of γ kernel evaluations (SlotCost
// calls) reported so far — the unit of work the dense CostMatrix
// compilation spends, reported alongside WhatIfCalls in advisor traffic
// breakdowns.
func (e *Engine) SlotCostCalls() int64 { return e.slotCalls.Load() }

// AddSlotCostCalls adds n SlotCost calls to the γ kernel counter.
// SlotCost does not count itself: its callers count their own calls
// and add them here once per slab or per cost evaluation, so the
// workers of a parallel compile do not write one shared cache line per
// γ evaluation.
func (e *Engine) AddSlotCostCalls(n int64) { e.slotCalls.Add(n) }

// ResetSlotCostCalls zeroes the γ kernel counter.
func (e *Engine) ResetSlotCostCalls() { e.slotCalls.Store(0) }

// WhatIfPlan optimizes the query under the hypothetical configuration
// and returns the chosen physical plan. This is the what-if optimizer
// of §2: a normal optimization with "faked" index statistics.
func (e *Engine) WhatIfPlan(q *workload.Query, cfg *Config) (*Plan, error) {
	e.whatIfCalls.Add(1)
	if err := checkOptimizable(q); err != nil {
		return nil, err
	}
	m := e.getMemo(q, cfg, false)
	defer e.putMemo(m)
	return e.optimizeMemo(m, nil)
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

// TemplateCtx is the optimizer's template mode: the "plan forcing
// through hints" service INUM relies on (§4), for one query under one
// configuration. Each TemplatePlan call forces per-table delivered
// orders, and the plan may exploit only those forced leaf orders, never
// incidental ones, so INUM can lift it into a template whose slot
// requirements are exactly the orders its internal operators consume.
// Access paths, join conditions and lookup leaves do not depend on the
// forced map, and a join subset's plans depend only on its own tables'
// requirements, so the calls share them: each piece of join-DP work is
// done once per context. A TemplateCtx is not safe for concurrent use;
// derive each query on one goroutine.
type TemplateCtx struct {
	e    *Engine
	memo *joinMemo
	err  error
}

// TemplateLeaf is one access-method leaf of a template-mode plan: the
// fields of the PlanNode the plan tree would hold there that INUM turns
// into a slot.
type TemplateLeaf struct {
	// Op is the access method; OpIndexLookup marks a repeated lookup.
	Op    Op
	Table string
	// Index is the access index (nil for a heap scan).
	Index *catalog.Index
	// Order is the delivered order (scans only).
	Order []catalog.ColumnRef
	// LookupCol and Lookups are the probed column and the probe count
	// (lookups only).
	LookupCol string
	Lookups   float64
	// SelfCost is the leaf's total access cost.
	SelfCost float64
}

// NewTemplateCtx prepares a template-mode context for q under cfg.
func (e *Engine) NewTemplateCtx(q *workload.Query, cfg *Config) *TemplateCtx {
	tc := &TemplateCtx{e: e}
	if err := checkOptimizable(q); err != nil {
		tc.err = err
		return tc
	}
	tc.memo = e.getMemo(q, cfg, true)
	return tc
}

// TemplatePlan runs one template-mode optimization: one what-if
// optimizer call, which the caller counts (AddWhatIfCalls). A table
// present in forced with a non-empty order must be accessed in that
// order; a table present with an empty order must be accessed without
// repeated lookups; absent tables are unconstrained. It appends the chosen plan's leaves to dst, in the
// left-to-right order of its tree, and returns them with the plan's
// cost; it builds no plan tree. It returns an error when no plan
// satisfies the requirements.
func (tc *TemplateCtx) TemplatePlan(forced map[string][]catalog.ColumnRef, dst []TemplateLeaf) ([]TemplateLeaf, float64, error) {
	if tc.err != nil {
		return dst, 0, tc.err
	}
	m := tc.memo
	if m == nil {
		return dst, 0, fmt.Errorf("engine: TemplateCtx used after Close")
	}
	full := tc.e.optimizeJoin(m, forced)
	if full == nil {
		return dst, 0, errNoPlan(m.q)
	}
	bi, best := tc.e.bestFinish(m, full)
	return m.appendLeaves(dst, 1<<len(m.tables)-1, bi), best.cost, nil
}

// Close recycles the context's derivation scratch. Call it once no
// further TemplatePlan calls will be made.
func (tc *TemplateCtx) Close() {
	if tc.memo != nil {
		tc.e.putMemo(tc.memo)
		tc.memo = nil
	}
}

// TemplateTree runs one template-mode optimization of q under cfg in a
// memo of its own, shares nothing with any other call, and returns the
// plan tree; it counts as one what-if call. It is the reference
// TemplateCtx's shared work and leaf walk are checked against (inum's
// TestDerivationMatchesReference).
func (e *Engine) TemplateTree(q *workload.Query, cfg *Config, forced map[string][]catalog.ColumnRef) (*Plan, error) {
	e.whatIfCalls.Add(1)
	if err := checkOptimizable(q); err != nil {
		return nil, err
	}
	m := newJoinMemo(e, len(q.Tables))
	m.reset(q, cfg, true)
	return e.optimizeMemo(m, forced)
}

func checkOptimizable(q *workload.Query) error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("engine: query %s references no tables", q.ID)
	}
	if len(q.Tables) > workload.MaxTables {
		return fmt.Errorf("engine: query %s joins %d tables; limit is %d", q.ID, len(q.Tables), workload.MaxTables)
	}
	return nil
}

// errNoPlan reports that no plan satisfies a pass's forced orders.
func errNoPlan(q *workload.Query) error {
	return fmt.Errorf("engine: no plan for query %s under forced orders", q.ID)
}

// optimizeMemo is one optimization over the memo's cached inputs: join
// ordering, then finalization. Only the winner's operator nodes are
// built.
func (e *Engine) optimizeMemo(m *joinMemo, forced map[string][]catalog.ColumnRef) (*Plan, error) {
	full := e.optimizeJoin(m, forced)
	if full == nil {
		return nil, errNoPlan(m.q)
	}
	bi, best := e.bestFinish(m, full)
	root := e.finalize(m, m.materialize((1<<len(m.tables))-1, bi), best)
	return &Plan{Root: root, Cost: root.Cost}, nil
}

// bestFinish ranks every full-mask entry by its finish decision and
// returns the first cheapest entry's index with its decision.
func (e *Engine) bestFinish(m *joinMemo, full *dpEntries) (int, finish) {
	bi := -1
	var best finish
	for i := range full.ents {
		en := &full.ents[i]
		if f := e.planFinish(m, en.cost, en.rows, en.width, m.orders[en.okeyID]); bi < 0 || f.cost < best.cost {
			bi, best = i, f
		}
	}
	return bi, best
}

// finish is finalization's decision over one join result: the
// grouping or aggregation operator, the sorts around it, and the cost
// of the completed plan.
type finish struct {
	// agg is OpHashAgg or OpStreamAgg when the query groups or
	// aggregates, else zero; aggRows and aggSelf are its cardinality and
	// self cost, aggOrder its delivered order.
	agg              Op
	aggRows, aggSelf float64
	aggOrder         []catalog.ColumnRef
	// groupSort: a Sort on the GROUP BY columns feeds the stream
	// aggregate. orderSort: a final ORDER BY sort follows.
	groupSort, orderSort bool
	cost                 float64
}

// planFinish decides finalization from the join result's scalars alone
// (cost, cardinality, width, delivered order), building no node, so
// optimizeMemo can rank every full-mask entry by it. Grouping takes the
// cheaper of hash aggregation and sort+stream unless the input already
// arrives grouped. finalize builds exactly what it decided, and
// TestPlanFinishMatchesFinalize holds the two costs bit-equal.
func (e *Engine) planFinish(m *joinMemo, cost, rows, width float64, order []catalog.ColumnRef) finish {
	p := e.Prof
	q := m.q
	var f finish

	if len(q.GroupBy) > 0 {
		f.agg, f.aggRows, f.aggSelf = OpStreamAgg, m.groupRowsFor(rows), rows*p.CPUOperatorCost
		if !satisfiesOrder(order, q.GroupBy) {
			hashSelf := rows*p.CPUOperatorCost*2*p.HashFudge + f.aggRows*p.CPUOperatorCost
			if pages := f.aggRows * width / PageSizeF; pages > float64(p.MemoryPages) {
				hashSelf += pages * 2 * p.SeqPageCost
			}
			if sorted := cost + m.sortCostFor(rows, width); cost+hashSelf <= sorted+f.aggSelf {
				f.agg, f.aggSelf = OpHashAgg, hashSelf
				order = nil
			} else {
				f.groupSort = true
				cost = sorted
				order = q.GroupBy
			}
		}
		cost += f.aggSelf
		rows = f.aggRows
	} else if q.Aggregate {
		f.agg, f.aggRows, f.aggSelf = OpStreamAgg, 1, rows*p.CPUOperatorCost
		cost += f.aggSelf
		rows = 1
		order = nil
	}
	f.aggOrder = order

	if len(q.OrderBy) > 0 && !satisfiesOrder(order, q.OrderBy) {
		f.orderSort = true
		cost += m.sortCostFor(rows, width)
	}
	f.cost = cost
	return f
}

// finalize builds the operators f decided on top of a join result.
func (e *Engine) finalize(m *joinMemo, root *PlanNode, f finish) *PlanNode {
	if f.groupSort {
		root = e.sortNode(root, m.q.GroupBy)
	}
	if f.agg != 0 {
		agg := &PlanNode{
			Op: f.agg, Children: []*PlanNode{root},
			Rows: f.aggRows, Width: root.Width, Order: f.aggOrder,
			SelfCost: f.aggSelf,
		}
		agg.Cost = root.Cost + agg.SelfCost
		root = agg
	}
	if f.orderSort {
		root = e.sortNode(root, m.q.OrderBy)
	}
	return root
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

	// order is a scan slot's required order.
	order []catalog.ColumnRef

	// lookup marks a repeated-lookup slot: lookups probes on joinCol,
	// each yielding rowsPerLookup rows from entries index entries.
	lookup                 bool
	joinCol                string
	lookups                float64
	rowsPerLookup, entries float64
}

// ScanAccess prepares a single-pass slot: reading table while
// delivering requiredOrder, touching needCols.
func (e *Engine) ScanAccess(q *workload.Query, table string, requiredOrder []catalog.ColumnRef, needCols []string) Access {
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
// a scan that cannot deliver the required order. Every scan of an index
// delivers a suffix of its key, so an ordered scan slot whose order no
// key suffix starts with is rejected before any scan is priced; the
// call still counts. The caller counts its calls and reports them
// through AddSlotCostCalls.
//
// The dense CostMatrix compilation runs it once per (shape, template,
// slot, candidate) with a and g built once each; the single-statement
// path (inum's Cache.Cost) runs it per configuration index. It allocates
// nothing, and prices the access with the very functions scanPaths and
// lookupLeaf build the optimizer's leaves from (indexScans,
// fullPassCost, probeCost), which TestSlotCostMatchesAccessPaths holds
// it to bit for bit.
func (e *Engine) SlotCost(a *Access, ix *catalog.Index, g catalog.Geometry) (float64, bool) {
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
	reachable := len(a.order) == 0
	for k := 0; !reachable && k+len(a.order) <= len(ix.Key); k++ {
		reachable = keyDelivers(ix.Table, ix.Key[k:], a.order)
	}
	if !reachable {
		return 0, false
	}
	scans, n, _ := e.indexScans(a, ix, g)
	best := math.Inf(1)
	for _, s := range scans[:n] {
		if s.cost < best && keyDelivers(ix.Table, s.order, a.order) {
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
