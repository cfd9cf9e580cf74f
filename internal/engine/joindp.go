package engine

import (
	"math"
	"sort"

	"repro/internal/workload"
)

// maxEntriesPerMask caps the number of Pareto plan entries retained
// per DP state, bounding optimization time on wide queries.
const maxEntriesPerMask = 16

// sortSelfCost prices a Sort of rows×width without building the node,
// so DP candidates can be cost-gated before any allocation.
func (e *Engine) sortSelfCost(rows, width float64) float64 {
	p := e.Prof
	cpu := rows * math.Log2(rows+2) * p.CPUOperatorCost * p.SortFudge
	pages := rows * width / float64(PageSizeF)
	var io float64
	if pages > float64(p.MemoryPages) {
		passes := 1 + math.Ceil(math.Log2(pages/float64(p.MemoryPages)))
		io = pages * 2 * passes * p.SeqPageCost
	}
	return cpu + io
}

// sortNode wraps child in a Sort delivering the required order.
func (e *Engine) sortNode(child *PlanNode, order []string) *PlanNode {
	n := &PlanNode{
		Op: OpSort, Children: []*PlanNode{child},
		Rows: child.Rows, Width: child.Width, Order: order,
		SelfCost: e.sortSelfCost(child.Rows, child.Width),
	}
	n.Cost = child.Cost + n.SelfCost
	return n
}

// pathSortCost memoizes sortSelfCost per access-path node; path nodes
// are shared across every forced-order combination of a derivation, so
// the log2-heavy sort pricing runs once per path instead of once per
// (combination, outer entry, condition).
func (e *Engine) pathSortCost(n *PlanNode) float64 {
	if !n.sortCostOK {
		n.sortCost = e.sortSelfCost(n.Rows, n.Width)
		n.sortCostOK = true
	}
	return n.sortCost
}

// PageSizeF mirrors catalog.PageSize for float arithmetic.
const PageSizeF = 8192

// hashCost returns the extra cost of a hash join given build and probe
// sides, including a spill penalty when the build side exceeds memory.
func (e *Engine) hashCost(buildRows, buildWidth, probeRows, probeWidth float64) float64 {
	p := e.Prof
	cpu := (buildRows*2 + probeRows) * p.CPUOperatorCost * p.HashFudge
	buildPages := buildRows * buildWidth / PageSizeF
	var io float64
	if buildPages > float64(p.MemoryPages) {
		probePages := probeRows * probeWidth / PageSizeF
		io = (buildPages + probePages) * 2 * p.SeqPageCost
	}
	return cpu + io
}

// joinCond is one join predicate connecting a new table to the current
// DP subset.
type joinCond struct {
	outerCol  string // qualified column on the subset side
	innerCol  string // unqualified column on the new table
	innerColQ string // innerCol qualified with the new table's name
	sel       float64
	// leaf is the repeated-lookup access path probing innerCol (nil
	// when the table has no usable index); resolved once when the
	// condition list is built rather than on every DP expansion.
	leaf *PlanNode
	// ocolOrder is the shared one-element order slice [outerCol] that
	// freshly sorted merge outers deliver; allocated once per
	// condition instead of once per improved DP entry.
	ocolOrder []string
	// okeyID is the interned key ID of ocolOrder.
	okeyID int32
}

// satisfiesCol reports whether a delivered order begins with col —
// the single-column case of satisfiesOrder, without a slice.
func satisfiesCol(delivered []string, col string) bool {
	return len(delivered) > 0 && delivered[0] == col
}

// Entry kinds: how a dpEntry's plan is rooted.
const (
	dpLeaf uint8 = iota
	dpHash
	dpMerge
	dpNL
)

// dpEntry is one Pareto entry of a DP subset: the scalars the DP
// compares (cost, cardinality, width, delivered order) plus the
// provenance needed to materialize the plan tree afterwards. The DP
// itself allocates no PlanNodes — candidate joins are priced and
// compared arithmetically, and only the entries on the finally chosen
// plan's spine are rebuilt as nodes by materialize.
type dpEntry struct {
	cost  float64
	rows  float64
	width float64
	self  float64 // SelfCost of the top operator
	order []string
	// okeyID is the interned ID of the delivered order's key (see
	// joinMemo.keyID); DP entry lookups compare these small ints
	// instead of hashing or comparing strings.
	okeyID int32

	kind uint8
	// presorted, for dpMerge: the outer side already delivered the
	// join column order (no outer sort).
	presorted bool
	// leaf: the access path (dpLeaf), the inner access path
	// (dpHash/dpMerge), or the per-probe lookup leaf (dpNL).
	leaf *PlanNode
	// outerMask/outerIdx locate the outer side's entry. Entries of a
	// subset are final before any superset reads them (the DP visits
	// masks in increasing order and writes only strictly larger
	// masks), so the reference stays valid through materialization.
	outerMask int32
	outerIdx  int32
	// innerSortCol, for dpMerge: the qualified column the inner path
	// must be sorted by ("" when its delivered order already serves).
	innerSortCol string
	// tIdx, for dpNL: the probed table; lookupCol its join column;
	// innerCost the total repeated-lookup cost.
	tIdx      int32
	lookupCol string
	innerCost float64

	// osort memoizes sortSelfCost(rows, width) for this entry as a
	// merge-join outer, shared across every (table, condition) the
	// entry expands with.
	osort   float64
	osortOK bool
}

// dpEntries holds the Pareto plan entries of one DP subset, keyed by
// delivered-order key. Entry counts are capped at maxEntriesPerMask,
// so a linear scan over parallel slices beats a map: no hashing, no
// iterator state, and no allocations on the optimizer's hottest path.
type dpEntries struct {
	kids []int32
	ents []dpEntry
}

// find returns the position of the interned order key, or -1.
func (d *dpEntries) find(kid int32) int {
	for i, k := range d.kids {
		if k == kid {
			return i
		}
	}
	return -1
}

// slot returns the entry to overwrite for kid: the existing entry at
// position i when i >= 0 (the caller found a costlier entry under the
// same key), a newly appended one otherwise. Callers assign the whole
// entry through the pointer, avoiding an intermediate struct copy.
func (d *dpEntries) slot(i int, kid int32) *dpEntry {
	if i >= 0 {
		return &d.ents[i]
	}
	d.kids = append(d.kids, kid)
	d.ents = append(d.ents, dpEntry{})
	return &d.ents[len(d.ents)-1]
}

// joinMemo is the per-query derivation state shared across every
// optimizeJoin call made for one query under one configuration. The
// template-extraction walk optimizes the same query dozens of times
// with only the forced-order map varying, yet the expensive inputs —
// access paths, join conditions per (subset, table), lookup leaves,
// per-table path trims — do not depend on the forced map at all (or
// depend only on the forced order of a single table). Memoizing them
// here turns the mixed-radix walk from ~50 independent optimizations
// into ~50 cheap DP passes over shared, immutable leaves.
//
// A joinMemo is single-goroutine state: concurrent derivations must
// use separate memos.
type joinMemo struct {
	e      *Engine
	q      *workload.Query
	cfg    *Config
	tables []string
	// template marks a TemplateCtx memo (see pathsFor). A memo keeps
	// one mode from getMemo to putMemo; only template mode forces orders.
	template bool
	idx      map[string]int
	// needCols[i] = q.ColumnsOf(tables[i]).
	needCols [][]string
	// base[i] holds the unconstrained scanPaths of tables[i].
	base [][]*PlanNode
	// filteredRows[i] = |tables[i]| × local selectivity.
	filteredRows []float64

	// conds/condSels memoize connTable per (mask, table), densely
	// indexed by mask*n + t; connDone marks filled entries. Join
	// conditions are forced-map independent, so the tables persist
	// across every optimizeJoin pass of a derivation.
	conds    [][]joinCond
	condSels [][]float64
	connDone []bool
	// lookups memoizes Engine.lookupLeaf per (table, join column).
	lookups map[lookupKey]*PlanNode
	// trimmed memoizes the template-mode path set per (table, forced
	// order).
	trimmed map[pathKey][]*PlanNode

	// kidOf interns order-key strings as dense small IDs; "" is always
	// ID 0. The distinct delivered orders of one derivation number at
	// most a handful, so DP entry lookups reduce to int comparisons.
	kidOf map[string]int32
	// ordPfx caches the order-satisfaction predicate per (delivered,
	// required) interned-key pair for prune's dominance test: 0
	// unknown, 1 satisfies, 2 does not. Indexed a*ordPfxW+b, grown as
	// keys are interned, reset per query alongside kidOf.
	ordPfx  []uint8
	ordPfxW int

	// dp is the DP table scratch, reused across calls.
	dp []dpEntries
	// passPaths/passNL are per-pass scratch: the path set and
	// NL-permission of each table under the current forced map,
	// resolved once per optimizeJoin call instead of once per subset.
	passPaths [][]*PlanNode
	passNL    []bool
	// lastKey[t] is the per-table requirement key of the previous
	// pass (orderKey of a non-empty forced order, "" otherwise —
	// absent and forced-empty tables admit the same paths and NL
	// gating). A table whose key is unchanged contributes exactly the
	// same leaves, so every DP subset avoiding changed tables can be
	// reused verbatim; passInit guards the first pass.
	lastKey  []string
	passInit bool

	// sc is a direct-mapped cache of sortSelfCost keyed by the exact
	// (rows, width) bit patterns. Successive DP passes of one
	// derivation rebuild near-identical entries, so sort pricing
	// repeats heavily across passes; the cache returns the previously
	// computed float unchanged, keeping results bit-identical.
	sc [512]scSlot
	// gr caches groupRows by the exact input-rows bits (the query's
	// GroupBy list is fixed), for the same cross-pass reason.
	gr [64]grSlot

	// groupOrder/orderBy memoize the qualified column-name slices
	// planFinish and finalize need.
	groupOrder []string
	orderBy    []string
	finalPrep  bool
}

type pathKey struct {
	t     int
	order string
}

// scSlot is one direct-mapped sort-cost cache line.
type scSlot struct {
	rows, width uint64
	val         float64
	ok          bool
}

// grSlot is one direct-mapped group-cardinality cache line.
type grSlot struct {
	rows uint64
	val  float64
	ok   bool
}

// groupRowsFor returns groupRows(rows, q.GroupBy) through the memo's
// cross-pass cache.
func (m *joinMemo) groupRowsFor(rows float64) float64 {
	rb := math.Float64bits(rows)
	s := &m.gr[(rb*0x9e3779b97f4a7c15)>>58]
	if s.ok && s.rows == rb {
		return s.val
	}
	v := m.e.groupRows(rows, m.q.GroupBy)
	*s = grSlot{rows: rb, val: v, ok: true}
	return v
}

// sortCostFor returns sortSelfCost(rows, width) through the memo's
// cross-pass cache.
func (m *joinMemo) sortCostFor(rows, width float64) float64 {
	rb, wb := math.Float64bits(rows), math.Float64bits(width)
	s := &m.sc[(rb*0x9e3779b97f4a7c15^wb)&511]
	if s.ok && s.rows == rb && s.width == wb {
		return s.val
	}
	v := m.e.sortSelfCost(rows, width)
	*s = scSlot{rows: rb, width: wb, val: v, ok: true}
	return v
}

type lookupKey struct {
	t   int
	col string
}

func newJoinMemo(e *Engine, q *workload.Query, cfg *Config, template bool) *joinMemo {
	n := len(q.Tables)
	m := &joinMemo{
		e:        e,
		q:        q,
		cfg:      cfg,
		tables:   q.Tables,
		template: template,
		idx:      make(map[string]int, n),
	}
	m.needCols = make([][]string, n)
	m.base = make([][]*PlanNode, n)
	m.filteredRows = make([]float64, n)
	for i, t := range q.Tables {
		m.idx[t] = i
		m.needCols[i] = q.ColumnsOf(t)
		m.base[i] = e.scanPaths(q, t, cfg, m.needCols[i])
		m.filteredRows[i] = e.tableRows(t) * e.localSel(q, t)
	}
	m.dp = make([]dpEntries, 1<<n)
	m.conds = make([][]joinCond, n<<n)
	m.condSels = make([][]float64, n<<n)
	m.connDone = make([]bool, n<<n)
	m.passPaths = make([][]*PlanNode, n)
	m.passNL = make([]bool, n)
	m.lastKey = make([]string, n)
	return m
}

// getMemo returns a joinMemo for q, recycling pooled scratch of the
// same table count when available. A recycled memo behaves exactly like
// a fresh one: passInit is false, so the first optimizeJoin pass marks
// every subset dirty and rebuilds the DP from the new query's paths;
// the per-query memo maps are cleared; the group-cardinality cache is
// zeroed (it depends on the query's GROUP BY). Only the sort-cost cache
// survives, which is sound and bit-stable because sortSelfCost depends
// on nothing but the engine profile and its exact float inputs.
func (e *Engine) getMemo(q *workload.Query, cfg *Config, template bool) *joinMemo {
	n := len(q.Tables)
	v := e.memoPools[n].Get()
	if v == nil {
		return newJoinMemo(e, q, cfg, template)
	}
	m := v.(*joinMemo)
	m.q, m.cfg, m.tables, m.template = q, cfg, q.Tables, template
	clear(m.idx)
	for i, t := range q.Tables {
		m.idx[t] = i
		m.needCols[i] = q.ColumnsOf(t)
		m.base[i] = e.scanPaths(q, t, cfg, m.needCols[i])
		m.filteredRows[i] = e.tableRows(t) * e.localSel(q, t)
	}
	for i := range m.connDone {
		m.connDone[i] = false
	}
	clear(m.lookups)
	clear(m.trimmed)
	clear(m.kidOf)
	m.ordPfx, m.ordPfxW = m.ordPfx[:0], 0
	// Drop the previous derivation's plan references so pooled scratch
	// never pins another query's nodes; keep entry capacity.
	for i := range m.dp {
		d := &m.dp[i]
		for j := range d.ents {
			d.ents[j].leaf = nil
			d.ents[j].order = nil
		}
		d.ents, d.kids = d.ents[:0], d.kids[:0]
	}
	m.passInit = false
	m.finalPrep = false
	m.groupOrder, m.orderBy = nil, nil
	m.gr = [64]grSlot{}
	return m
}

// putMemo returns a memo to the engine's pool once no derivation will
// touch it again. Plans already returned stay valid: they reference
// heap nodes the recycled memo never mutates.
func (e *Engine) putMemo(m *joinMemo) {
	e.memoPools[len(m.tables)].Put(m)
}

// keyID interns an order-key string.
func (m *joinMemo) keyID(key string) int32 {
	if key == "" {
		return 0
	}
	if id, ok := m.kidOf[key]; ok {
		return id
	}
	if m.kidOf == nil {
		m.kidOf = make(map[string]int32, 8)
	}
	id := int32(len(m.kidOf) + 1)
	m.kidOf[key] = id
	return id
}

// conn memoizes connTable per (mask, table), resolving each
// condition's lookup leaf as the list is built.
func (m *joinMemo) conn(mask, t int) ([]joinCond, []float64) {
	key := mask*len(m.tables) + t
	if !m.connDone[key] {
		conds, sels := m.e.connTable(m.q, m.tables, mask, t, m.idx)
		for i := range conds {
			conds[i].leaf = m.lookupLeaf(t, conds[i].innerCol)
			conds[i].ocolOrder = []string{conds[i].outerCol}
			conds[i].okeyID = m.keyID(conds[i].outerCol)
		}
		m.conds[key], m.condSels[key] = conds, sels
		m.connDone[key] = true
	}
	return m.conds[key], m.condSels[key]
}

// lookupLeaf memoizes Engine.lookupLeaf per (table, join column).
func (m *joinMemo) lookupLeaf(t int, col string) *PlanNode {
	k := lookupKey{t, col}
	if leaf, ok := m.lookups[k]; ok {
		return leaf
	}
	if m.lookups == nil {
		m.lookups = make(map[lookupKey]*PlanNode)
	}
	leaf := m.e.lookupLeaf(m.q, m.tables[t], m.cfg, col, m.needCols[t])
	m.lookups[k] = leaf
	return leaf
}

// pathsFor returns the access-path set of table t under the forced
// map. Plain mode is never forced and uses every path; template mode
// memoizes its trim by the table's effective order requirement (absent
// and present-but-empty requirements admit the same paths, so they
// share the "" key).
func (m *joinMemo) pathsFor(t int, forced map[string][]string) []*PlanNode {
	if !m.template {
		return m.base[t]
	}
	req := forced[m.tables[t]]
	k := pathKey{t, ""}
	if len(req) > 0 {
		k.order = orderKey(req)
	}
	if ps, ok := m.trimmed[k]; ok {
		return ps
	}
	if m.trimmed == nil {
		m.trimmed = make(map[pathKey][]*PlanNode)
	}
	// In template mode the internal plan may rely only on leaf orders
	// that were explicitly forced: every access path that delivers the
	// forced order advertises exactly that order (nothing for unforced
	// tables). This guarantees that a template's slot requirements
	// capture every ordering assumption baked into its internal cost β.
	trimmed := make([]*PlanNode, 0, len(m.base[t]))
	seen := map[string]bool{}
	for _, p := range m.base[t] {
		if !satisfiesOrder(p.Order, req) {
			continue
		}
		cp := *p
		cp.okey = ""
		if len(req) > 0 {
			cp.Order = req
		} else {
			cp.Order = nil
		}
		// With orders erased, identical (order, cost-class) paths
		// collapse; keep the cheapest per order.
		ok := orderKey(cp.Order)
		if seen[ok] {
			for j, prior := range trimmed {
				if orderKey(prior.Order) == ok && cp.SelfCost < prior.SelfCost {
					trimmed[j] = &cp
				}
			}
			continue
		}
		seen[ok] = true
		trimmed = append(trimmed, &cp)
	}
	m.trimmed[k] = trimmed
	return trimmed
}

// finalOrders lazily prepares the qualified group-by and order-by
// column slices used by planFinish and finalize.
func (m *joinMemo) finalOrders() ([]string, []string) {
	if !m.finalPrep {
		m.finalPrep = true
		if len(m.q.GroupBy) > 0 {
			m.groupOrder = make([]string, len(m.q.GroupBy))
			for i, g := range m.q.GroupBy {
				m.groupOrder[i] = g.String()
			}
		}
		if len(m.q.OrderBy) > 0 {
			m.orderBy = make([]string, len(m.q.OrderBy))
			for i, o := range m.q.OrderBy {
				m.orderBy[i] = o.String()
			}
		}
	}
	return m.groupOrder, m.orderBy
}

// materialize rebuilds the plan tree of entry (mask, idx) from its
// provenance, mirroring exactly the nodes the pre-scalar DP used to
// build eagerly: identical operators, children, costs and orders.
func (m *joinMemo) materialize(mask, idx int) *PlanNode {
	en := &m.dp[mask].ents[idx]
	switch en.kind {
	case dpLeaf:
		return en.leaf
	case dpHash:
		o := m.materialize(int(en.outerMask), int(en.outerIdx))
		return &PlanNode{
			Op: OpHashJoin, Children: []*PlanNode{o, en.leaf},
			Rows: en.rows, Width: en.width,
			SelfCost: en.self, Cost: en.cost,
		}
	case dpMerge:
		o := m.materialize(int(en.outerMask), int(en.outerIdx))
		if !en.presorted {
			o = m.e.sortNode(o, en.order)
		}
		in := en.leaf
		if en.innerSortCol != "" {
			in = m.e.sortNode(in, []string{en.innerSortCol})
		}
		return &PlanNode{
			Op: OpMergeJoin, Children: []*PlanNode{o, in},
			Rows: en.rows, Width: en.width, Order: o.Order,
			SelfCost: en.self, Cost: en.cost,
		}
	default: // dpNL
		o := m.materialize(int(en.outerMask), int(en.outerIdx))
		leaf := en.leaf
		inner := &PlanNode{
			Op: OpIndexLookup, Table: m.tables[en.tIdx], Index: leaf.Index,
			Rows: leaf.Rows, Width: leaf.Width,
			Lookups:   o.Rows,
			LookupCol: en.lookupCol,
			SelfCost:  en.innerCost, Cost: en.innerCost,
		}
		return &PlanNode{
			Op: OpNLJoin, Children: []*PlanNode{o, inner},
			Rows: en.rows, Width: en.width, Order: o.Order,
			SelfCost: en.self, Cost: en.cost,
		}
	}
}

// optimizeJoin runs the System-R DP over the query's tables and
// returns the entry set for the full table mask, sorted by cost
// (nil when no plan exists). forced constrains per-table delivered
// orders in template mode (see TemplateCtx.TemplatePlan); plain mode
// passes nil.
//
// The returned entries alias the memo's DP scratch and are invalidated
// by the next optimizeJoin call on the same memo.
func (e *Engine) optimizeJoin(m *joinMemo, forced map[string][]string) *dpEntries {
	n := len(m.tables)

	// Incremental invalidation: dp[mask] is a pure function of the
	// requirement keys of the tables in mask, so only subsets touching
	// a table whose key changed since the previous pass need
	// recomputation. The template-extraction walk varies one table's
	// forced order per call, which leaves roughly half of all subsets
	// — including all their entries and the provenance into them —
	// byte-identical and reusable. A clean subset references only
	// subsets of itself, which are therefore also clean, so reused
	// provenance stays valid.
	dirty := 0
	if !m.passInit {
		m.passInit = true
		dirty = 1<<n - 1
	}
	for t := 0; t < n; t++ {
		req, constrained := forced[m.tables[t]]
		key := ""
		if constrained && len(req) > 0 {
			key = orderKey(req)
		}
		if key != m.lastKey[t] {
			m.lastKey[t] = key
			dirty |= 1 << t
		}
		m.passPaths[t] = m.pathsFor(t, forced)
		m.passNL[t] = !constrained || len(req) == 0
	}

	for i := range m.tables {
		if dirty&(1<<i) == 0 {
			continue
		}
		d := &m.dp[1<<i]
		d.kids = d.kids[:0]
		d.ents = d.ents[:0]
		for _, pth := range m.passPaths[i] {
			kid := m.keyID(pth.key())
			if j := d.find(kid); j < 0 || pth.Cost < d.ents[j].cost {
				*d.slot(j, kid) = dpEntry{
					cost: pth.Cost, rows: pth.Rows, width: pth.Width,
					self: pth.SelfCost, order: pth.Order, okeyID: kid,
					kind: dpLeaf, leaf: pth,
				}
			}
		}
	}
	for mask := 3; mask < 1<<n; mask++ {
		if mask&dirty != 0 && mask&(mask-1) != 0 {
			m.dp[mask].kids = m.dp[mask].kids[:0]
			m.dp[mask].ents = m.dp[mask].ents[:0]
		}
	}

	for mask := 1; mask < 1<<n; mask++ {
		if len(m.dp[mask].ents) == 0 {
			continue
		}
		if mask&dirty != 0 {
			// Clean subsets were pruned when they were built.
			m.prune(&m.dp[mask])
		}
		// expandJoin only writes strictly larger masks, so iterating
		// the entry slice in place is safe — and entry references into
		// dp[mask] stay valid for materialization afterwards.
		for t := 0; t < n; t++ {
			if mask&(1<<t) != 0 {
				continue
			}
			if (mask|1<<t)&dirty == 0 {
				// The target subset avoids every changed table; its
				// previous-pass entries are already exactly these
				// candidates' outcome.
				continue
			}
			conds, sels := m.conn(mask, t)
			tPaths := m.passPaths[t]
			for oi := range m.dp[mask].ents {
				e.expandJoin(m, mask, t, oi, tPaths, conds, sels, m.passNL[t])
			}
		}
	}

	full := &m.dp[(1<<n)-1]
	if len(full.ents) == 0 {
		return nil
	}
	if (1<<n-1)&dirty != 0 {
		m.prune(full)
		// Insertion-sort entries by cost in place (entry counts are
		// tiny and reflect-based sorting allocates); the parallel kids
		// slice is stale from here on, which is fine — the DP pass is
		// over.
		ents := full.ents
		for i := 1; i < len(ents); i++ {
			for j := i; j > 0 && ents[j].cost < ents[j-1].cost; j-- {
				ents[j], ents[j-1] = ents[j-1], ents[j]
			}
		}
	}
	return full
}

// expandJoin emits the candidate joins of outer entry oi (covering
// mask) with table t into the DP. All candidates are priced
// arithmetically; for entry keys that several candidates compete for
// (hash joins, and the inner paths of each merge condition) the argmin
// is selected first and a single entry recorded. The sequential
// node-building insert order this replaces used strict-< improvement,
// so keeping the first minimum reproduces its outcome exactly.
func (e *Engine) expandJoin(m *joinMemo, mask, t, oi int, tPaths []*PlanNode,
	conds []joinCond, sels []float64, nlAllowed bool) {

	p := e.Prof
	outer := &m.dp[mask].ents[oi]
	newMask := mask | 1<<t
	d := &m.dp[newMask]

	// Cross products are permitted only when no join condition exists
	// (disconnected queries); they cost their cardinality.
	cross := len(conds) == 0

	// Join output cardinality depends only on the inner path, not the
	// join method or condition; compute it once per inner.
	var rowsBuf [16]float64
	rowsFor := rowsBuf[:0]
	if len(tPaths) <= len(rowsBuf) {
		rowsFor = rowsBuf[:len(tPaths)]
	} else {
		rowsFor = make([]float64, len(tPaths))
	}
	for ii, inner := range tPaths {
		rowsFor[ii] = joinRows(outer.rows, inner.Rows, sels)
	}

	// Hash join (or cross product via nested materialization); the
	// result is unordered, so every inner competes for the "" entry.
	var hInner *PlanNode
	hCost := math.Inf(1)
	var hRows, hSelf float64
	for ii, inner := range tPaths {
		rows := rowsFor[ii]
		var extra float64
		if cross {
			extra = outer.rows * inner.Rows * p.CPUOperatorCost
		} else if inner.Rows <= outer.rows {
			extra = e.hashCost(inner.Rows, inner.Width, outer.rows, outer.width)
		} else {
			extra = e.hashCost(outer.rows, outer.width, inner.Rows, inner.Width)
		}
		self := extra + rows*p.CPUTupleCost
		cost := outer.cost + inner.Cost + self
		if cost < hCost {
			hInner, hCost, hRows, hSelf = inner, cost, rows, self
		}
	}
	if hInner != nil {
		if i := d.find(0); i < 0 || hCost < d.ents[i].cost {
			// Field stores instead of a struct-literal assignment: the
			// literal costs a ~150-byte duffcopy plus a bulk write
			// barrier per store on the DP's hottest line.
			sl := d.slot(i, 0)
			sl.cost, sl.rows, sl.width, sl.self = hCost, hRows, outer.width+hInner.Width, hSelf
			sl.order, sl.okeyID = nil, 0
			sl.kind, sl.presorted = dpHash, false
			sl.leaf = hInner
			sl.outerMask, sl.outerIdx = int32(mask), int32(oi)
			sl.innerSortCol = ""
			sl.tIdx, sl.lookupCol, sl.innerCost = 0, "", 0
			sl.osort, sl.osortOK = 0, false
		}
	}

	// Merge join per condition: outer and inner sorts are priced
	// arithmetically (inner sort costs memoized per path) and never
	// built here. A freshly sorted outer delivers exactly [outerCol],
	// whose order key is the column itself — no key assembly needed.
	for ci := range conds {
		c := &conds[ci]
		oCost, oRows := outer.cost, outer.rows
		okey := c.okeyID
		presorted := satisfiesCol(outer.order, c.outerCol)
		if presorted {
			okey = outer.okeyID
		} else {
			if !outer.osortOK {
				outer.osort = m.sortCostFor(outer.rows, outer.width)
				outer.osortOK = true
			}
			oCost += outer.osort
		}
		var mIn *PlanNode
		mCost := math.Inf(1)
		var mRows, mSelf float64
		mSorted := false
		for ii, inner := range tPaths {
			inCost := inner.Cost
			needSort := !satisfiesCol(inner.Order, c.innerColQ)
			if needSort {
				inCost += e.pathSortCost(inner)
			}
			rows := rowsFor[ii]
			self := (oRows + inner.Rows) * p.CPUOperatorCost
			cost := oCost + inCost + self
			if cost < mCost {
				mIn, mCost, mRows, mSelf, mSorted = inner, cost, rows, self, needSort
			}
		}
		if mIn != nil {
			if i := d.find(okey); i < 0 || mCost < d.ents[i].cost {
				sl := d.slot(i, okey)
				sl.cost, sl.rows, sl.width, sl.self = mCost, mRows, outer.width+mIn.Width, mSelf
				sl.okeyID = okey
				sl.kind, sl.presorted = dpMerge, presorted
				sl.leaf = mIn
				sl.outerMask, sl.outerIdx = int32(mask), int32(oi)
				if mSorted {
					sl.innerSortCol = c.innerColQ
				} else {
					sl.innerSortCol = ""
				}
				if presorted {
					sl.order = outer.order
				} else {
					sl.order = c.ocolOrder
				}
				sl.tIdx, sl.lookupCol, sl.innerCost = 0, "", 0
				sl.osort, sl.osortOK = 0, false
			}
		}
	}

	// Index nested-loop join: inner is a repeated lookup, which cannot
	// honor a forced order requirement on the inner table.
	if nlAllowed {
		for ci := range conds {
			c := &conds[ci]
			leaf := c.leaf
			if leaf == nil {
				continue
			}
			rows := joinRows(outer.rows, m.filteredRows[t], sels)
			innerCost := outer.rows * leaf.SelfCost * p.NLFudge
			self := rows * p.CPUTupleCost
			cost := outer.cost + innerCost + self
			if i := d.find(outer.okeyID); i < 0 || cost < d.ents[i].cost {
				sl := d.slot(i, outer.okeyID)
				sl.cost, sl.rows, sl.width, sl.self = cost, rows, outer.width+leaf.Width, self
				sl.order, sl.okeyID = outer.order, outer.okeyID
				sl.kind, sl.presorted = dpNL, false
				sl.leaf = leaf
				sl.outerMask, sl.outerIdx = int32(mask), int32(oi)
				sl.innerSortCol = ""
				sl.tIdx, sl.lookupCol, sl.innerCost = int32(t), c.innerCol, innerCost
				sl.osort, sl.osortOK = 0, false
			}
		}
	}
}

// ordSatisfies reports whether del's delivered order satisfies req's
// order requirement, memoized per interned order-key pair. Every DP
// write site pairs an entry's order slice with the interned ID of its
// exact key, so the predicate is a pure function of the two IDs and
// one byte answers what satisfiesOrder would recompute over strings on
// every prune pass.
func (m *joinMemo) ordSatisfies(del, req *dpEntry) bool {
	a, b := int(del.okeyID), int(req.okeyID)
	if b == 0 || a == b {
		return true
	}
	if a == 0 {
		return false
	}
	w := m.ordPfxW
	if a < w && b < w {
		switch m.ordPfx[a*w+b] {
		case 1:
			return true
		case 2:
			return false
		}
	} else {
		// Grow to cover every interned key; cached answers are
		// discarded and recomputed on demand (keys number a handful).
		w = len(m.kidOf) + 1
		if need := w * w; cap(m.ordPfx) >= need {
			m.ordPfx = m.ordPfx[:need]
			clear(m.ordPfx)
		} else {
			m.ordPfx = make([]uint8, need)
		}
		m.ordPfxW = w
	}
	if satisfiesOrder(del.order, req.order) {
		m.ordPfx[a*m.ordPfxW+b] = 1
		return true
	}
	m.ordPfx[a*m.ordPfxW+b] = 2
	return false
}

// prune drops dominated DP entries — an entry whose order is a prefix
// of another entry's order and whose cost is higher is never useful —
// and then caps the entry count at maxEntriesPerMask by cost.
func (m *joinMemo) prune(d *dpEntries) {
	n := len(d.ents)
	kept := 0
	for i := 0; i < n; i++ {
		nd := &d.ents[i]
		dominated := false
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			// Mutual domination is impossible: it would force equal
			// costs and mutually-prefix (hence equal) orders, and
			// entries have distinct order keys.
			other := &d.ents[j]
			if other.cost <= nd.cost && m.ordSatisfies(other, nd) {
				dominated = true
				break
			}
		}
		if !dominated {
			// Self-copies are the common case (nothing dominated yet);
			// skipping them avoids a ~150-byte struct copy plus its
			// write barriers on the optimizer's hottest cleanup.
			if kept != i {
				d.kids[kept] = d.kids[i]
				d.ents[kept] = d.ents[i]
			}
			kept++
		}
	}
	d.kids = d.kids[:kept]
	d.ents = d.ents[:kept]
	if kept <= maxEntriesPerMask {
		return
	}
	perm := make([]int, kept)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return d.ents[perm[a]].cost < d.ents[perm[b]].cost })
	kids := make([]int32, maxEntriesPerMask)
	ents := make([]dpEntry, maxEntriesPerMask)
	for i := 0; i < maxEntriesPerMask; i++ {
		kids[i] = d.kids[perm[i]]
		ents[i] = d.ents[perm[i]]
	}
	d.kids = kids
	d.ents = ents
}

// connTable gathers the join conditions connecting table t to the
// subset mask, along with their selectivities.
func (e *Engine) connTable(q *workload.Query, tables []string, mask, t int, idx map[string]int) ([]joinCond, []float64) {
	var conds []joinCond
	var sels []float64
	name := tables[t]
	for _, j := range q.Joins {
		var tCol, oTab, oCol string
		switch {
		case j.Left.Table == name:
			tCol, oTab, oCol = j.Left.Column, j.Right.Table, j.Right.Column
		case j.Right.Table == name:
			tCol, oTab, oCol = j.Right.Column, j.Left.Table, j.Left.Column
		default:
			continue
		}
		oi, ok := idx[oTab]
		if !ok || mask&(1<<oi) == 0 {
			continue
		}
		sel := e.joinSel(j)
		conds = append(conds, joinCond{outerCol: oTab + "." + oCol, innerCol: tCol, innerColQ: name + "." + tCol, sel: sel})
		sels = append(sels, sel)
	}
	return conds, sels
}
