package engine

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/catalog"
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
func (e *Engine) sortNode(child *PlanNode, order []catalog.ColumnRef) *PlanNode {
	n := &PlanNode{
		Op: OpSort, Children: []*PlanNode{child},
		Rows: child.Rows, Width: child.Width, Order: order,
		SelfCost: e.sortSelfCost(child.Rows, child.Width),
	}
	n.Cost = child.Cost + n.SelfCost
	return n
}

// pathSortCost memoizes sortSelfCost per path node; path nodes are
// shared across every forced-order combination of a derivation, so the
// log2-heavy sort pricing runs once per path instead of once per
// (combination, outer entry, condition).
func (m *joinMemo) pathSortCost(n *pathNode) float64 {
	if math.IsNaN(n.sortCost) {
		n.sortCost = m.e.sortSelfCost(n.Rows, n.Width)
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

// joinCond is one join predicate connecting a table to another table
// of the query. The conditions of a table are built once per
// derivation, in q.Joins order; a DP expansion of subset mask with the
// table reads those whose other table lies in mask (obit&mask != 0).
type joinCond struct {
	outer catalog.ColumnRef // the column on the other table
	inner catalog.ColumnRef // the column on this table
	sel   float64
	// obit is the other table's bit in the DP's table masks.
	obit int
	// leaf is the position in joinMemo.nodes of the repeated-lookup
	// access path probing inner (-1 when the table has no usable
	// index); resolved once when the condition list is built rather
	// than on every DP expansion.
	leaf int32
	// okeyID is the interned ID of the order [outer] that a freshly
	// sorted merge outer delivers.
	okeyID int32
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
// plan's spine are rebuilt as nodes by materialize. An entry is plain
// data: it names its path, order and join condition by number, and
// holds no pointer, string or slice (TestDPEntryIsPlainData), so
// storing one is a plain copy and pooled DP tables pin nothing.
type dpEntry struct {
	cost  float64
	rows  float64
	width float64
	self  float64 // SelfCost of the top operator
	// okeyID names the delivered order, joinMemo.orders[okeyID]; DP
	// entry lookups compare these small ints instead of strings.
	okeyID int32

	kind uint8
	// presorted, for dpMerge: the outer side already delivered the
	// join column order (no outer sort). innerSorted: the inner path
	// is sorted by the condition's inner column.
	presorted, innerSorted bool
	// leaf is a position in joinMemo.nodes: the access path (dpLeaf),
	// the inner access path (dpHash/dpMerge), or the per-probe lookup
	// leaf (dpNL).
	leaf int32
	// outerMask/outerIdx locate the outer side's entry in the version
	// of outerMask that any pass selecting this entry's version selects
	// (joinMemo.dp). Entries of a version are final before any superset
	// reads them (the DP visits masks in increasing order and writes
	// only strictly larger masks), and no later pass rewrites them.
	outerMask int32
	outerIdx  int32
	// tIdx and cond, for dpMerge and dpNL: the joined table and the
	// join condition conds[tIdx][cond], whose inner column a merge
	// sorts by and a nested loop probes. innerCost, for dpNL: the total
	// repeated-lookup cost.
	tIdx, cond int32
	innerCost  float64

	// osort memoizes sortSelfCost(rows, width) for this entry as a
	// merge-join outer, shared across every (table, condition) the
	// entry expands with.
	osort   float64
	osortOK bool
}

// dpEntries holds the Pareto plan entries of one version of a DP
// subset, one per delivered order. Entry counts are capped at
// maxEntriesPerMask, so a linear scan beats a map: no hashing, no
// iterator state, and no allocations on the optimizer's hottest path.
type dpEntries struct {
	// key is the version's requirement-key vector: joinMemo.passKeys'
	// vector restricted to the subset's tables (see joinMemo.spread).
	key  uint64
	ents []dpEntry
}

// find returns the position of the entry delivering order oid, or -1.
func (d *dpEntries) find(oid int32) int {
	for i := range d.ents {
		if d.ents[i].okeyID == oid {
			return i
		}
	}
	return -1
}

// put stores en at position i when i >= 0 (the caller found a costlier
// entry under the same order), and appends it otherwise.
func (d *dpEntries) put(i int, en dpEntry) {
	if i >= 0 {
		d.ents[i] = en
		return
	}
	d.ents = append(d.ents, en)
}

// reqBits is the width of one table's requirement-key index in a
// version key: MaxTables of them fill a uint64.
const reqBits = 64 / workload.MaxTables

// maxReqs is the number of distinct requirement keys one table can
// carry in a derivation before its versions are dropped (passKeys).
const maxReqs = 1 << reqBits

// joinMemo is the per-query derivation state shared across every
// optimizeJoin call made for one query under one configuration. The
// template-extraction walk optimizes the same query many times (about
// 16 on hom-1000) with only the forced-order map varying, yet access
// paths, join conditions and lookup leaves do not depend on the forced
// map at all, and the path set of a table depends only on its own
// requirement key.
//
// The DP table keeps every version of every subset for the whole
// derivation. dp[mask] is a pure function of the requirement keys of
// the tables in mask (a table's key decides its path set and whether
// it may be probed by a nested loop), so each version is stored under
// that key vector, and a pass computes only the subsets whose vector no
// earlier pass has met; every other subset reuses its stored version
// verbatim, provenance included.
//
// A joinMemo is single-goroutine state: concurrent derivations must
// use separate memos.
type joinMemo struct {
	e      *Engine
	q      *workload.Query
	cfg    *Config
	tables []string
	// template marks a TemplateCtx memo (see trim). A memo keeps one
	// mode from getMemo to putMemo; only template mode forces orders.
	template bool
	idx      map[string]int
	// needCols[i] = q.ColumnsOf(tables[i]).
	needCols [][]string
	// nodes numbers every access path and lookup leaf the DP may use,
	// in the order they are created; base, paths, passPaths, lookups,
	// joinCond.leaf and dpEntry.leaf hold positions in it.
	nodes []pathNode
	// base[i] holds the unconstrained scanPaths of tables[i].
	base [][]int32
	// filteredRows[i] = |tables[i]| × local selectivity.
	filteredRows []float64

	// conds[t] lists every join condition of table t, in q.Joins order,
	// with its lookup leaf resolved.
	conds [][]joinCond
	// lookups memoizes Engine.lookupLeaf per (table, join column).
	lookups map[lookupKey]int32

	// reqs[t] lists the distinct non-empty order requirements met on
	// table t in this derivation, after a nil at index 0 that stands
	// for "unconstrained" (absent and forced-empty tables admit the
	// same paths and nested-loop probing). A requirement's index is the
	// table's key; paths[t][k] is the path set key k admits.
	reqs  [][][]catalog.ColumnRef
	paths [][][]int32

	// orders interns the orders of one derivation by slice equality;
	// orders[0] is the empty order. A DP entry names its order by ID,
	// so entry lookups reduce to int comparisons.
	orders [][]catalog.ColumnRef
	// ordPfx caches the order-satisfaction predicate per (delivered,
	// required) order-ID pair for prune's dominance test: 0 unknown,
	// 1 satisfies, 2 does not. Indexed a*ordPfxW+b, grown as orders are
	// interned, reset per query alongside orders.
	ordPfx  []uint8
	ordPfxW int

	// vers[mask] holds every version of subset mask computed in this
	// derivation; dp[mask] is the one the current pass's keys select,
	// and fresh[mask] marks it as first computed in this pass.
	// spread[mask] has the reqBits-wide field of every table in mask set.
	vers   [][]dpEntries
	dp     []*dpEntries
	fresh  []bool
	spread []uint64
	// passPaths/passNL are per-pass scratch: the path set and
	// NL-permission of each table under the current forced map,
	// resolved once per optimizeJoin call instead of once per subset.
	passPaths [][]int32
	passNL    []bool

	// sc is a direct-mapped cache of sortSelfCost keyed by the exact
	// (rows, width) bit patterns. Successive DP passes of one
	// derivation rebuild near-identical entries, so sort pricing
	// repeats heavily across passes; the cache returns the previously
	// computed float unchanged, keeping results bit-identical.
	sc [512]scSlot
	// gr caches groupRows by the exact input-rows bits (the query's
	// GroupBy list is fixed), for the same cross-pass reason.
	gr [64]grSlot
}

// pathNode is one numbered node of joinMemo.nodes: an access path or
// lookup leaf, the ID of its delivered order, and its sort cost as a
// merge inner (NaN until first priced; see pathSortCost).
type pathNode struct {
	*PlanNode
	ord      int32
	sortCost float64
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

// newJoinMemo allocates the scratch of an n-table memo; reset fills it
// for a query.
func newJoinMemo(e *Engine, n int) *joinMemo {
	m := &joinMemo{
		e:            e,
		idx:          make(map[string]int, n),
		needCols:     make([][]string, n),
		base:         make([][]int32, n),
		filteredRows: make([]float64, n),
		conds:        make([][]joinCond, n),
		reqs:         make([][][]catalog.ColumnRef, n),
		paths:        make([][][]int32, n),
		vers:         make([][]dpEntries, 1<<n),
		dp:           make([]*dpEntries, 1<<n),
		fresh:        make([]bool, 1<<n),
		spread:       make([]uint64, 1<<n),
		passPaths:    make([][]int32, n),
		passNL:       make([]bool, n),
	}
	for mask := 1; mask < 1<<n; mask++ {
		low := mask & -mask
		t := bits.TrailingZeros(uint(low))
		m.spread[mask] = m.spread[mask^low] | (maxReqs-1)<<(reqBits*t)
	}
	return m
}

// getMemo returns a joinMemo for q, recycling pooled scratch of the
// same table count when available. A recycled memo behaves exactly like
// a fresh one: reset drops every DP version, requirement key and
// per-query memo map, and zeroes the group-cardinality cache (it
// depends on the query's GROUP BY). Only the sort-cost cache survives,
// which is sound and bit-stable because sortSelfCost depends on nothing
// but the engine profile and its exact float inputs.
func (e *Engine) getMemo(q *workload.Query, cfg *Config, template bool) *joinMemo {
	n := len(q.Tables)
	m, _ := e.memoPools[n].Get().(*joinMemo)
	if m == nil {
		m = newJoinMemo(e, n)
	}
	m.reset(q, cfg, template)
	return m
}

// reset prepares m, of q's table count, for a derivation of q under cfg.
func (m *joinMemo) reset(q *workload.Query, cfg *Config, template bool) {
	e := m.e
	m.q, m.cfg, m.tables, m.template = q, cfg, q.Tables, template
	clear(m.idx)
	clear(m.lookups)
	clear(m.nodes)
	clear(m.orders)
	m.nodes, m.orders = m.nodes[:0], append(m.orders[:0], nil)
	m.ordPfx, m.ordPfxW = m.ordPfx[:0], 0
	m.gr = [64]grSlot{}
	for i, t := range q.Tables {
		m.idx[t] = i
		m.needCols[i] = q.ColumnsOf(t)
		m.base[i] = m.base[i][:0]
		for _, n := range e.scanPaths(q, t, cfg, m.needCols[i]) {
			m.base[i] = append(m.base[i], m.addNode(n))
		}
		m.filteredRows[i] = e.tableRows(t) * e.localSel(q, t)
	}
	for t, name := range q.Tables {
		clear(m.conds[t])
		conds := m.conds[t][:0]
		for _, j := range q.Joins {
			inner, outer := j.Left, j.Right
			if inner.Table != name {
				inner, outer = outer, inner
			}
			if inner.Table != name {
				continue
			}
			oi, ok := m.idx[outer.Table]
			if !ok {
				continue
			}
			conds = append(conds, joinCond{
				outer: outer, inner: inner,
				sel: e.joinSel(j), obit: 1 << oi,
				leaf:   m.lookupLeaf(t, inner.Column),
				okeyID: m.orderID([]catalog.ColumnRef{outer}),
			})
		}
		m.conds[t] = conds
	}
	m.resetVersions()
}

// resetVersions drops every DP version and requirement key, keeping
// their capacity.
func (m *joinMemo) resetVersions() {
	for mask, vs := range m.vers {
		for i := range vs {
			vs[i].ents = vs[i].ents[:0]
		}
		m.vers[mask] = vs[:0]
	}
	for t := range m.tables {
		clear(m.reqs[t])
		m.reqs[t] = append(m.reqs[t][:0], nil)
		m.paths[t] = append(m.paths[t][:0], m.trim(t, nil))
	}
}

// putMemo returns a memo to the engine's pool once no derivation will
// touch it again. Plans already returned stay valid: they reference
// heap nodes the recycled memo never mutates.
func (e *Engine) putMemo(m *joinMemo) {
	e.memoPools[len(m.tables)].Put(m)
}

// orderID interns an order by slice equality; the empty order is ID 0.
func (m *joinMemo) orderID(o []catalog.ColumnRef) int32 {
	if len(o) == 0 {
		return 0
	}
	for id := 1; id < len(m.orders); id++ {
		if slices.Equal(m.orders[id], o) {
			return int32(id)
		}
	}
	m.orders = append(m.orders, o)
	return int32(len(m.orders) - 1)
}

// addNode numbers n as the derivation's next path node.
func (m *joinMemo) addNode(n *PlanNode) int32 {
	m.nodes = append(m.nodes, pathNode{PlanNode: n, ord: m.orderID(n.Order), sortCost: math.NaN()})
	return int32(len(m.nodes) - 1)
}

// lookupLeaf memoizes Engine.lookupLeaf per (table, join column) as a
// node position, -1 when no index serves the lookup.
func (m *joinMemo) lookupLeaf(t int, col string) int32 {
	k := lookupKey{t, col}
	if pos, ok := m.lookups[k]; ok {
		return pos
	}
	if m.lookups == nil {
		m.lookups = make(map[lookupKey]int32)
	}
	pos := int32(-1)
	if leaf := m.e.lookupLeaf(m.q, m.tables[t], m.cfg, col, m.needCols[t]); leaf != nil {
		pos = m.addNode(leaf)
	}
	m.lookups[k] = pos
	return pos
}

// passKeys resolves each table's requirement key under the forced map,
// sets the pass's path sets and NL permissions, and returns the key
// vector: table t's key in bits [reqBits·t, reqBits·(t+1)). A table
// meeting its maxReqs-th distinct requirement drops every version first,
// so the derivation goes on as from a fresh memo.
func (m *joinMemo) passKeys(forced map[string][]catalog.ColumnRef) uint64 {
	var vec uint64
	for t, name := range m.tables {
		req := forced[name]
		k := 0
		if len(req) > 0 {
			k = slices.IndexFunc(m.reqs[t][1:], func(r []catalog.ColumnRef) bool { return slices.Equal(r, req) }) + 1
			if k == 0 {
				if len(m.reqs[t]) == maxReqs {
					m.resetVersions()
					return m.passKeys(forced)
				}
				k = len(m.reqs[t])
				m.reqs[t] = append(m.reqs[t], req)
				m.paths[t] = append(m.paths[t], m.trim(t, req))
			}
		}
		vec |= uint64(k) << (reqBits * t)
		m.passPaths[t] = m.paths[t][k]
		m.passNL[t] = k == 0
	}
	return vec
}

// trim returns the access-path set of table t under order requirement
// req. Plain mode is never forced and uses every path.
func (m *joinMemo) trim(t int, req []catalog.ColumnRef) []int32 {
	if !m.template {
		return m.base[t]
	}
	// In template mode the internal plan may rely only on leaf orders
	// that were explicitly forced: every access path that delivers the
	// forced order advertises exactly that order (nothing for unforced
	// tables). This guarantees that a template's slot requirements
	// capture every ordering assumption baked into its internal cost β.
	// With every order erased to req the paths differ only in cost, so
	// the set is the first cheapest of them.
	best := int32(-1)
	for _, pos := range m.base[t] {
		p := m.nodes[pos]
		if satisfiesOrder(p.Order, req) && (best < 0 || p.SelfCost < m.nodes[best].SelfCost) {
			best = pos
		}
	}
	if best < 0 {
		return nil
	}
	cp := *m.nodes[best].PlanNode
	cp.Order = nil
	if len(req) > 0 {
		cp.Order = req
	}
	return []int32{m.addNode(&cp)}
}

// useVersion points dp[mask] at the stored version under key, adding an
// empty one when no earlier pass computed it, and reports whether it
// was added.
func (m *joinMemo) useVersion(mask int, key uint64) bool {
	vs := m.vers[mask]
	for i := range vs {
		if vs[i].key == key {
			m.dp[mask] = &vs[i]
			return false
		}
	}
	if len(vs) < cap(vs) {
		vs = vs[:len(vs)+1]
	} else {
		vs = append(vs, dpEntries{})
	}
	d := &vs[len(vs)-1]
	d.key = key
	m.vers[mask], m.dp[mask] = vs, d
	return true
}

// materialize rebuilds the plan tree of entry (mask, idx) from its
// provenance, mirroring exactly the nodes the pre-scalar DP used to
// build eagerly: identical operators, children, costs and orders.
func (m *joinMemo) materialize(mask, idx int) *PlanNode {
	en := &m.dp[mask].ents[idx]
	switch en.kind {
	case dpLeaf:
		return m.nodes[en.leaf].PlanNode
	case dpHash:
		o := m.materialize(int(en.outerMask), int(en.outerIdx))
		return &PlanNode{
			Op: OpHashJoin, Children: []*PlanNode{o, m.nodes[en.leaf].PlanNode},
			Rows: en.rows, Width: en.width,
			SelfCost: en.self, Cost: en.cost,
		}
	case dpMerge:
		o := m.materialize(int(en.outerMask), int(en.outerIdx))
		if !en.presorted {
			o = m.e.sortNode(o, m.orders[en.okeyID])
		}
		in := m.nodes[en.leaf].PlanNode
		if en.innerSorted {
			in = m.e.sortNode(in, []catalog.ColumnRef{m.conds[en.tIdx][en.cond].inner})
		}
		return &PlanNode{
			Op: OpMergeJoin, Children: []*PlanNode{o, in},
			Rows: en.rows, Width: en.width, Order: o.Order,
			SelfCost: en.self, Cost: en.cost,
		}
	default: // dpNL
		o := m.materialize(int(en.outerMask), int(en.outerIdx))
		leaf := m.nodes[en.leaf]
		inner := &PlanNode{
			Op: OpIndexLookup, Table: m.tables[en.tIdx], Index: leaf.Index,
			Rows: leaf.Rows, Width: leaf.Width,
			Lookups:   o.Rows,
			LookupCol: m.conds[en.tIdx][en.cond].inner.Column,
			SelfCost:  en.innerCost, Cost: en.innerCost,
		}
		return &PlanNode{
			Op: OpNLJoin, Children: []*PlanNode{o, inner},
			Rows: en.rows, Width: en.width, Order: o.Order,
			SelfCost: en.self, Cost: en.cost,
		}
	}
}

// appendLeaves appends the access-method leaves of entry (mask, idx)
// to dst in the order PlanNode.Leaves visits the tree materialize
// builds — the outer side's leaves, then the inner's — reading them
// from the DP's provenance without building a node.
func (m *joinMemo) appendLeaves(dst []TemplateLeaf, mask, idx int) []TemplateLeaf {
	en := &m.dp[mask].ents[idx]
	if en.kind != dpLeaf {
		dst = m.appendLeaves(dst, int(en.outerMask), int(en.outerIdx))
	}
	if en.kind == dpNL {
		return append(dst, TemplateLeaf{
			Op: OpIndexLookup, Table: m.tables[en.tIdx], Index: m.nodes[en.leaf].Index,
			LookupCol: m.conds[en.tIdx][en.cond].inner.Column, Lookups: m.dp[en.outerMask].ents[en.outerIdx].rows,
			SelfCost: en.innerCost,
		})
	}
	l := m.nodes[en.leaf]
	return append(dst, TemplateLeaf{Op: l.Op, Table: l.Table, Index: l.Index, Order: l.Order, SelfCost: l.SelfCost})
}

// optimizeJoin runs the System-R DP over the query's tables and
// returns the entry set for the full table mask, sorted by cost
// (nil when no plan exists). forced constrains per-table delivered
// orders in template mode (see TemplateCtx.TemplatePlan); plain mode
// passes nil.
//
// The returned entries alias the memo's DP scratch and are invalidated
// by the next optimizeJoin call on the same memo.
func (e *Engine) optimizeJoin(m *joinMemo, forced map[string][]catalog.ColumnRef) *dpEntries {
	n := len(m.tables)
	full := 1<<n - 1

	// Select each subset's version under this pass's keys. The walk of
	// a template derivation varies a few tables' forced orders, so most
	// subsets meet a key vector an earlier pass already computed, and
	// only the others are built below. A stored version references only
	// subsets of itself, whose key vectors are restrictions of its own,
	// so the versions this pass selects for them are the ones its
	// provenance was built against.
	vec := m.passKeys(forced)
	for mask := 1; mask <= full; mask++ {
		m.fresh[mask] = m.useVersion(mask, vec&m.spread[mask])
	}

	for i := range m.tables {
		if !m.fresh[1<<i] {
			continue
		}
		d := m.dp[1<<i]
		for _, pos := range m.passPaths[i] {
			pth := &m.nodes[pos]
			if j := d.find(pth.ord); j < 0 || pth.Cost < d.ents[j].cost {
				d.put(j, dpEntry{
					cost: pth.Cost, rows: pth.Rows, width: pth.Width,
					self: pth.SelfCost, okeyID: pth.ord,
					kind: dpLeaf, leaf: pos,
				})
			}
		}
	}

	for mask := 1; mask < full; mask++ {
		d := m.dp[mask]
		if len(d.ents) == 0 {
			continue
		}
		if m.fresh[mask] {
			// Stored versions were pruned when they were built.
			m.prune(d)
		}
		// expandJoin only writes strictly larger masks, so iterating
		// the entry slice in place is safe — and entry references into
		// dp[mask] stay valid for materialization afterwards.
		for t := 0; t < n; t++ {
			if mask&(1<<t) != 0 || !m.fresh[mask|1<<t] {
				// A stored target version is already exactly these
				// candidates' outcome.
				continue
			}
			for oi := range d.ents {
				e.expandJoin(m, mask, t, oi)
			}
		}
	}

	d := m.dp[full]
	if len(d.ents) == 0 {
		return nil
	}
	if m.fresh[full] {
		m.prune(d)
		// Insertion-sort entries by cost in place (entry counts are
		// tiny and reflect-based sorting allocates); no pass writes the
		// full mask's stored version again.
		ents := d.ents
		for i := 1; i < len(ents); i++ {
			for j := i; j > 0 && ents[j].cost < ents[j-1].cost; j-- {
				ents[j], ents[j-1] = ents[j-1], ents[j]
			}
		}
	}
	return d
}

// expandJoin emits the candidate joins of outer entry oi (covering
// mask) with table t into the DP. All candidates are priced
// arithmetically; for entry keys that several candidates compete for
// (hash joins, and the inner paths of each merge condition) the argmin
// is selected first and a single entry recorded. The sequential
// node-building insert order this replaces used strict-< improvement,
// so keeping the first minimum reproduces its outcome exactly.
func (e *Engine) expandJoin(m *joinMemo, mask, t, oi int) {
	p := e.Prof
	outer := &m.dp[mask].ents[oi]
	d := m.dp[mask|1<<t]
	tPaths, conds := m.passPaths[t], m.conds[t]

	// A (subset, table) pair that no join condition connects joins as a
	// cross product, costing its cardinality. That holds inside
	// connected queries too, for every subset the table has no
	// predicate into, not only in disconnected ones.
	cross := true
	for ci := range conds {
		if conds[ci].obit&mask != 0 {
			cross = false
			break
		}
	}

	// Join output cardinality depends only on the inner path, not the
	// join method or condition; compute it once per inner.
	var rowsBuf [16]float64
	rowsFor := rowsBuf[:0]
	if len(tPaths) <= len(rowsBuf) {
		rowsFor = rowsBuf[:len(tPaths)]
	} else {
		rowsFor = make([]float64, len(tPaths))
	}
	for ii, pos := range tPaths {
		rowsFor[ii] = joinRows(outer.rows, m.nodes[pos].Rows, conds, mask)
	}

	// Hash join (or cross product via nested materialization); the
	// result is unordered, so every inner competes for the empty order.
	hIn := int32(-1)
	hCost := math.Inf(1)
	var hRows, hSelf float64
	for ii, pos := range tPaths {
		inner := m.nodes[pos].PlanNode
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
			hIn, hCost, hRows, hSelf = pos, cost, rows, self
		}
	}
	if hIn >= 0 {
		if i := d.find(0); i < 0 || hCost < d.ents[i].cost {
			d.put(i, dpEntry{
				cost: hCost, rows: hRows, width: outer.width + m.nodes[hIn].Width, self: hSelf,
				kind: dpHash, leaf: hIn, outerMask: int32(mask), outerIdx: int32(oi),
			})
		}
	}

	// Merge join per condition: outer and inner sorts are priced
	// arithmetically (inner sort costs memoized per path) and never
	// built here. A freshly sorted outer delivers exactly [outer],
	// whose order ID the condition carries.
	outerOrder := m.orders[outer.okeyID]
	for ci := range conds {
		c := &conds[ci]
		if c.obit&mask == 0 {
			continue
		}
		oCost, oRows := outer.cost, outer.rows
		okey := c.okeyID
		presorted := len(outerOrder) > 0 && outerOrder[0] == c.outer
		if presorted {
			okey = outer.okeyID
		} else {
			if !outer.osortOK {
				outer.osort = m.sortCostFor(outer.rows, outer.width)
				outer.osortOK = true
			}
			oCost += outer.osort
		}
		mIn := int32(-1)
		mCost := math.Inf(1)
		var mRows, mSelf float64
		mSorted := false
		for ii, pos := range tPaths {
			inner := &m.nodes[pos]
			inCost := inner.Cost
			needSort := len(inner.Order) == 0 || inner.Order[0] != c.inner
			if needSort {
				inCost += m.pathSortCost(inner)
			}
			rows := rowsFor[ii]
			self := (oRows + inner.Rows) * p.CPUOperatorCost
			cost := oCost + inCost + self
			if cost < mCost {
				mIn, mCost, mRows, mSelf, mSorted = pos, cost, rows, self, needSort
			}
		}
		if mIn >= 0 {
			if i := d.find(okey); i < 0 || mCost < d.ents[i].cost {
				d.put(i, dpEntry{
					cost: mCost, rows: mRows, width: outer.width + m.nodes[mIn].Width, self: mSelf,
					okeyID: okey, kind: dpMerge, presorted: presorted, innerSorted: mSorted,
					leaf: mIn, outerMask: int32(mask), outerIdx: int32(oi),
					tIdx: int32(t), cond: int32(ci),
				})
			}
		}
	}

	// Index nested-loop join: inner is a repeated lookup, which cannot
	// honor a forced order requirement on the inner table.
	if m.passNL[t] {
		for ci := range conds {
			c := &conds[ci]
			if c.leaf < 0 || c.obit&mask == 0 {
				continue
			}
			leaf := m.nodes[c.leaf].PlanNode
			rows := joinRows(outer.rows, m.filteredRows[t], conds, mask)
			innerCost := outer.rows * leaf.SelfCost * p.NLFudge
			self := rows * p.CPUTupleCost
			cost := outer.cost + innerCost + self
			if i := d.find(outer.okeyID); i < 0 || cost < d.ents[i].cost {
				d.put(i, dpEntry{
					cost: cost, rows: rows, width: outer.width + leaf.Width, self: self,
					okeyID: outer.okeyID, kind: dpNL,
					leaf: c.leaf, outerMask: int32(mask), outerIdx: int32(oi),
					tIdx: int32(t), cond: int32(ci), innerCost: innerCost,
				})
			}
		}
	}
}

// ordSatisfies reports whether del's delivered order satisfies req's
// order requirement, memoized per order-ID pair: one byte answers what
// satisfiesOrder would recompute over strings on every prune pass.
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
		// Grow to cover every interned order; cached answers are
		// discarded and recomputed on demand (orders number a handful).
		w = len(m.orders)
		if need := w * w; cap(m.ordPfx) >= need {
			m.ordPfx = m.ordPfx[:need]
			clear(m.ordPfx)
		} else {
			m.ordPfx = make([]uint8, need)
		}
		m.ordPfxW = w
	}
	if satisfiesOrder(m.orders[a], m.orders[b]) {
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
			// entries have distinct orders.
			other := &d.ents[j]
			if other.cost <= nd.cost && m.ordSatisfies(other, nd) {
				dominated = true
				break
			}
		}
		if !dominated {
			d.ents[kept] = d.ents[i]
			kept++
		}
	}
	d.ents = d.ents[:kept]
	if kept <= maxEntriesPerMask {
		return
	}
	perm := make([]int, kept)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return d.ents[perm[a]].cost < d.ents[perm[b]].cost })
	ents := make([]dpEntry, maxEntriesPerMask)
	for i := range ents {
		ents[i] = d.ents[perm[i]]
	}
	d.ents = ents
}
