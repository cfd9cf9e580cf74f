// Package inum implements INUM (Papadomanolakis, Dash, Ailamaki,
// VLDB 2007): a cache of template plans that makes what-if
// optimization orders of magnitude cheaper. For each query, INUM makes
// a few carefully selected optimizer calls (one per interesting-order
// combination), strips the access-method leaves out of the returned
// plans, and caches the resulting template plans. Evaluating
// cost(q, X) for an arbitrary configuration X then requires no
// optimizer call at all: each template contributes its internal plan
// cost β plus, per slot, the cheapest compatible access cost γ among
// the indexes of X — the linearly composable form of Definition 1 in
// the CoPhy paper.
package inum

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/workload"
)

// SlotMode distinguishes the two ways a template accesses a table.
type SlotMode int

const (
	// SlotScan is a single-pass access, optionally constrained to
	// deliver a sort order.
	SlotScan SlotMode = iota
	// SlotLookup is a repeated point-lookup access driven by a
	// nested-loop join; its γ scales with the probe count.
	SlotLookup
)

// Slot is one access-method hole of a template plan.
type Slot struct {
	// Table is the accessed table.
	Table string
	// Mode is the access style.
	Mode SlotMode
	// RequiredOrder is the sort order the slot must deliver, columns of
	// Table (scan slots only; empty means any access works).
	RequiredOrder []catalog.ColumnRef
	// JoinCol is the probed column (lookup slots only).
	JoinCol string
	// Lookups is the probe multiplicity (lookup slots only).
	Lookups float64
	// NeedCols are the columns of Table the query touches; they decide
	// whether an index is covering in this slot.
	NeedCols []string
}

// Template is one cached template plan: the internal (non-leaf) cost β
// plus the slots that access methods plug into. Templates are immutable
// once published and may be shared by every prepared statement of the
// same shape.
type Template struct {
	// Internal is β: the execution cost of the internal operators.
	Internal float64
	// Slots lists the access-method holes, one per referenced table.
	Slots []Slot
}

// slotOn returns the template's slot on table, or nil. A template holds
// one slot per table, and slot counts are tiny (one per referenced
// table), so a linear scan beats building a lookup map per comparison.
func (t *Template) slotOn(table string) *Slot {
	for i := range t.Slots {
		if t.Slots[i].Table == table {
			return &t.Slots[i]
		}
	}
	return nil
}

// QueryInfo is one query with its template plans TPlans(q). The
// templates are the shape cache's immutable set, shared by every query
// of the same shape.
type QueryInfo struct {
	Query     *workload.Query
	Templates []*Template

	// shape is the shape-cache entry Templates came from. Queries holding
	// the same entry have equal fingerprints, which is what lets them
	// share a γ slab.
	shape *shapeEntry
}

// Cache is the INUM layer over one engine. It remembers shapes, not
// statements: one map from shape fingerprint (engine.ShapeFingerprint)
// to the derived template set, so statements that differ only in
// constants the histograms price identically share one derivation, and
// the second and later statements of a shape skip every what-if
// optimizer call. Nothing is keyed by statement ID, so no ID can name
// the wrong statement. A derivation's optimizer calls all go through
// engine.TemplateCtx; PrepStats counts every one of them. It is safe
// for concurrent use.
type Cache struct {
	Eng *engine.Engine

	// mu guards the shape map, its FIFO order and the counters below.
	mu     sync.Mutex
	shapes map[string]*shapeEntry
	// order is the insertion order maxShapes evicts in.
	order []string

	hits, misses, evictions int64
	// prepCalls counts the what-if optimizations spent deriving template
	// plans (the "INUM time" component of the paper's breakdowns).
	prepCalls int64

	// maxTemplates caps K_q per query.
	maxTemplates int
}

// shapeEntry is one shape-cache slot. Entries are inserted before
// derivation starts (singleflight): the first goroutine to claim a
// fingerprint derives the templates while later arrivals block on ready,
// so a burst of same-shape statements costs exactly one set of optimizer
// calls. Everything but ready is written once, by publish before ready
// closes, and never mutated after.
type shapeEntry struct {
	ready     chan struct{}
	templates []*Template
	// slots are the distinct slots of templates (no two equal in every
	// Slot field), in order of first use; refs lists, template by
	// template, the distinct number of each of its slots, template k's
	// being refs[tmplOff[k]:tmplOff[k+1]]. γ reads a slot only through
	// its fields and the statement's predicates, which one shape shares,
	// so equal slots price every access method to the same bits: a
	// template set repeats a leaf slot in most of its templates, and only
	// its distinct slots need pricing and storing.
	slots         []*Slot
	refs, tmplOff []int32
}

// publish sets the entry's templates and numbers their distinct slots.
// Lookups compares by bits.
func (en *shapeEntry) publish(templates []*Template) {
	en.templates = templates
	en.tmplOff = make([]int32, 1, len(templates)+1)
	for _, t := range templates {
		for si := range t.Slots {
			s := &t.Slots[si]
			d := slices.IndexFunc(en.slots, func(o *Slot) bool { return sameSlot(o, s) })
			if d < 0 {
				d = len(en.slots)
				en.slots = append(en.slots, s)
			}
			en.refs = append(en.refs, int32(d))
		}
		en.tmplOff = append(en.tmplOff, int32(len(en.refs)))
	}
}

// sameSlot reports whether two slots are equal in every field.
func sameSlot(a, b *Slot) bool {
	return a.Table == b.Table && a.Mode == b.Mode && a.JoinCol == b.JoinCol &&
		math.Float64bits(a.Lookups) == math.Float64bits(b.Lookups) &&
		slices.Equal(a.RequiredOrder, b.RequiredOrder) && slices.Equal(a.NeedCols, b.NeedCols)
}

// derived reports whether the entry's templates are published.
func (en *shapeEntry) derived() bool {
	select {
	case <-en.ready:
		return true
	default:
		return false
	}
}

// maxCombos caps the interesting-order combinations one derivation
// enumerates.
const maxCombos = 48

// maxShapes bounds the cache. Eviction is FIFO and skips entries still
// being derived, so a long-running derivation can never be yanked out
// from under its waiters.
const maxShapes = 4096

// New returns an empty INUM cache over the engine.
func New(eng *engine.Engine) *Cache {
	return &Cache{
		Eng:          eng,
		shapes:       make(map[string]*shapeEntry),
		maxTemplates: 10,
	}
}

// PrepStats returns the what-if optimizer calls spent on derivations,
// failed ones included. It is safe while preparation is still running.
func (c *Cache) PrepStats() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prepCalls
}

// ShapeStats returns the shape-cache hit/miss counters: one per lookup.
// A hit means a statement's entire template derivation was skipped.
func (c *Cache) ShapeStats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// ShapeEvictions returns how many derived shapes the maxShapes bound
// has dropped.
func (c *Cache) ShapeEvictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// ShapeCount returns the number of fully derived shapes cached.
func (c *Cache) ShapeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, en := range c.shapes {
		if en.derived() {
			n++
		}
	}
	return n
}

// Prepare derives the template sets of every query of the workload
// (SELECT statements and update query shells) in parallel, so later
// lookups of their shapes are hits.
func (c *Cache) Prepare(w *workload.Workload) {
	queries := w.Queries()
	par.For(len(queries), 0, func(i int) {
		c.shapeFor(queries[i].Query)
	})
}

// PrepareQuery returns the query with the template plans of its shape,
// deriving them on first sight of the shape. The QueryInfo is fresh;
// only the template set is cached.
func (c *Cache) PrepareQuery(q *workload.Query) *QueryInfo {
	en := c.shapeFor(q)
	return &QueryInfo{Query: q, Templates: en.templates, shape: en}
}

// shapeFor returns the published shape-cache entry for the query's
// shape, deriving its templates on first sight. Concurrent same-shape
// callers single-flight: one derives, the rest wait on the entry.
func (c *Cache) shapeFor(q *workload.Query) *shapeEntry {
	fp := c.Eng.ShapeFingerprint(q)
	c.mu.Lock()
	if en, ok := c.shapes[fp]; ok {
		c.hits++
		c.mu.Unlock()
		<-en.ready
		return en
	}
	en := &shapeEntry{ready: make(chan struct{})}
	c.insert(fp, en)
	c.misses++
	c.mu.Unlock()

	// Close ready even if derivation panics, so same-shape waiters are
	// never stranded on a dead entry.
	defer close(en.ready)
	en.publish(c.buildTemplates(q))
	return en
}

// insert adds an entry under the lock, evicting the oldest derived
// entries FIFO while the cache is at its bound. When every resident
// entry is mid-derivation the cache grows past the bound rather than
// evict one with live waiters.
func (c *Cache) insert(fp string, en *shapeEntry) {
	for len(c.shapes) >= maxShapes {
		i := slices.IndexFunc(c.order, func(old string) bool { return c.shapes[old].derived() })
		if i < 0 {
			break
		}
		delete(c.shapes, c.order[i])
		c.order = slices.Delete(c.order, i, i+1)
		c.evictions++
	}
	c.shapes[fp] = en
	c.order = append(c.order, fp)
}

// interestingOrders returns the per-table candidate orders of a query:
// single join columns, the group-by prefix and the order-by prefix
// restricted to the table, each once.
func interestingOrders(q *workload.Query, table string) [][]catalog.ColumnRef {
	var out [][]catalog.ColumnRef
	add := func(order []catalog.ColumnRef) {
		if len(order) > 0 && !slices.ContainsFunc(out, func(o []catalog.ColumnRef) bool { return slices.Equal(o, order) }) {
			out = append(out, order)
		}
	}
	for _, jc := range q.JoinColsOf(table) {
		add([]catalog.ColumnRef{{Table: table, Column: jc}})
	}
	for _, refs := range [][]catalog.ColumnRef{q.GroupBy, q.OrderBy} {
		n := 0
		for n < len(refs) && refs[n].Table == table {
			n++
		}
		add(refs[:n:n])
	}
	return out
}

// buildTemplates enumerates interesting-order combinations, optimizes
// each with forced orders, and extracts the Pareto set of templates.
// The result depends only on the query's shape fingerprint, so it is
// cached per shape and shared across same-shape statements.
func (c *Cache) buildTemplates(q *workload.Query) []*Template {
	d := derivations.Get().(*derivation)
	defer d.release()

	needCols := make(map[string][]string, len(q.Tables))
	for _, t := range q.Tables {
		needCols[t] = q.ColumnsOf(t)
	}
	// The walk's calls run under two configurations, one context each:
	// every call under a configuration shares that context's work.
	var (
		calls int64
		tc    *engine.TemplateCtx
		tcCfg *engine.Config
	)
	eachPass(q, needCols, func(cfg *engine.Config, forced map[string][]catalog.ColumnRef) {
		if cfg != tcCfg {
			if tc != nil {
				tc.Close()
			}
			tc, tcCfg = c.Eng.NewTemplateCtx(q, cfg), cfg
		}
		calls++
		leaves, cost, err := tc.TemplatePlan(forced, d.leaves[:0])
		d.leaves = leaves
		if err == nil {
			d.add(cost, forced, needCols)
		}
	})
	if tc != nil {
		tc.Close()
	}
	c.Eng.AddWhatIfCalls(calls)

	kept := prune(append(d.ptrs[:0], d.cands[:d.n]...), c.maxTemplates)
	d.ptrs = kept[:0]
	out := make([]*Template, len(kept))
	for i, t := range kept {
		out[i] = &Template{Internal: t.Internal, Slots: slices.Clone(t.Slots)}
	}

	c.mu.Lock()
	c.prepCalls += calls
	c.mu.Unlock()
	return out
}

// eachPass calls pass once per optimizer call of q's derivation, in
// order: the fallback (unordered scans only, under the empty
// configuration, so the empty atomic configuration instantiates it and
// cost(q, X) < ∞ for every X), then, under a synthetic configuration,
// one unconstrained call and one per interesting-order combination.
// The forced map is reused between calls; a template retains only its
// order slices, never the map itself.
func eachPass(q *workload.Query, needCols map[string][]string, pass func(cfg *engine.Config, forced map[string][]catalog.ColumnRef)) {
	// Synthetic configuration for template extraction: for every
	// interesting order a covering hypothetical index, so the
	// optimizer can exhibit order-exploiting plan shapes. This mirrors
	// INUM's "carefully selected what-if calls".
	perTable := make([][][]catalog.ColumnRef, len(q.Tables))
	synth := engine.NewConfig()
	for i, t := range q.Tables {
		orders := interestingOrders(q, t)
		if len(orders) > 3 {
			orders = orders[:3]
		}
		perTable[i] = append([][]catalog.ColumnRef{nil}, orders...)
		for _, o := range orders {
			key := make([]string, len(o))
			for j, c := range o {
				key[j] = c.Column
			}
			synth.Add(&catalog.Index{Table: t, Key: key, Include: remainder(needCols[t], key)})
		}
		// A plain covering index encourages lookup/covering shapes.
		if jcs := q.JoinColsOf(t); len(jcs) > 0 {
			synth.Add(&catalog.Index{Table: t, Key: []string{jcs[0]}, Include: remainder(needCols[t], []string{jcs[0]})})
		}
	}

	forced := make(map[string][]catalog.ColumnRef, len(q.Tables))
	for _, t := range q.Tables {
		forced[t] = []catalog.ColumnRef{}
	}
	pass(engine.NewConfig(), forced)
	pass(synth, nil)

	// Mixed-radix walk over order combinations.
	combos := 1
	for _, opts := range perTable {
		combos *= len(opts)
	}
	for ci := 1; ci < combos && ci <= maxCombos; ci++ {
		clear(forced)
		rest := ci
		for i, opts := range perTable {
			choice := rest % len(opts)
			rest /= len(opts)
			if choice > 0 {
				forced[q.Tables[i]] = opts[choice]
			}
		}
		if len(forced) == 0 {
			continue
		}
		pass(synth, forced)
	}
}

// remainder returns cols minus the key columns.
func remainder(cols, key []string) []string {
	var out []string
	for _, col := range cols {
		inKey := false
		for _, k := range key {
			if k == col {
				inKey = true
				break
			}
		}
		if !inKey {
			out = append(out, col)
		}
	}
	return out
}

// derivation is one derivation's reusable scratch: its candidate
// templates, no two of them duplicates (see add), live in cands[:n]
// until prune picks the few buildTemplates publishes, and only those
// are copied. Pooled, so a workload's derivations reuse the candidates'
// slot slices and the buffers.
type derivation struct {
	cands []*Template
	// betas[i] is cands[i]'s β to three decimals, formatted only once
	// another candidate's slots matched its own (empty until then).
	betas [][]byte
	n     int
	ptrs  []*Template
	// leaves is the leaf buffer.
	leaves []engine.TemplateLeaf
}

var derivations = sync.Pool{New: func() any { return new(derivation) }}

// add lifts the leaves of one forced plan of total cost cost into the
// next candidate: β is the internal cost; each leaf becomes a slot
// whose order requirement is the forced order of its table (not the
// incidental order of the index the optimizer happened to pick). The
// candidate is dropped as a duplicate when an earlier one has the same
// slots (sameSlots) and, checked only then, the same β to three
// decimals.
func (d *derivation) add(cost float64, forced map[string][]catalog.ColumnRef, needCols map[string][]string) {
	if d.n == len(d.cands) {
		d.cands = append(d.cands, new(Template))
		d.betas = append(d.betas, nil)
	}
	t := d.cands[d.n]
	var leafCost float64
	for i := range d.leaves {
		leafCost += d.leaves[i].SelfCost
	}
	t.Internal = cost - leafCost
	t.Slots = t.Slots[:0]
	for i := range d.leaves {
		leaf := &d.leaves[i]
		s := Slot{Table: leaf.Table, NeedCols: needCols[leaf.Table]}
		if leaf.Op == engine.OpIndexLookup {
			s.Mode = SlotLookup
			s.JoinCol = leaf.LookupCol
			s.Lookups = leaf.Lookups
		} else {
			s.Mode = SlotScan
			if req := forced[leaf.Table]; len(req) > 0 {
				s.RequiredOrder = req
			}
		}
		t.Slots = append(t.Slots, s)
	}
	d.betas[d.n] = d.betas[d.n][:0]
	for k, prior := range d.cands[:d.n] {
		// Equal β texts lie within 0.001 of each other, so a computed
		// difference above 0.002 rules a pair out without formatting.
		if math.Abs(prior.Internal-t.Internal) > 0.002 || !sameSlots(prior, t) {
			continue
		}
		if len(d.betas[d.n]) == 0 {
			d.betas[d.n] = strconv.AppendFloat(d.betas[d.n], t.Internal, 'f', 3, 64)
		}
		if len(d.betas[k]) == 0 {
			d.betas[k] = strconv.AppendFloat(d.betas[k], prior.Internal, 'f', 3, 64)
		}
		if bytes.Equal(d.betas[k], d.betas[d.n]) {
			return
		}
	}
	d.n++
}

// sameSlots reports whether two candidates of one derivation have the
// same slots, matched by table: equal mode, required order and join
// column, and Lookups that round to the same integer, ties to even.
// NeedCols follow from the table within a derivation.
func sameSlots(a, b *Template) bool {
	if len(a.Slots) != len(b.Slots) {
		return false
	}
	for i := range a.Slots {
		sa, sb := &a.Slots[i], &b.Slots[i]
		if sb.Table != sa.Table {
			if sb = b.slotOn(sa.Table); sb == nil {
				return false
			}
		}
		if sa.Mode != sb.Mode || !slices.Equal(sa.RequiredOrder, sb.RequiredOrder) ||
			sa.JoinCol != sb.JoinCol || !sameRounded(sa.Lookups, sb.Lookups) {
			return false
		}
	}
	return true
}

// sameRounded reports whether a and b print the same to zero decimals
// (strconv's 'f', 0): the same integer, ties rounded to even, with the
// same sign, or both NaN.
func sameRounded(a, b float64) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	ra, rb := math.RoundToEven(a), math.RoundToEven(b)
	return ra == rb && math.Signbit(ra) == math.Signbit(rb) || ra != ra && rb != rb
}

// release clears the references the scratch holds into the derivation
// and returns it to the pool.
func (d *derivation) release() {
	for _, t := range d.cands {
		clear(t.Slots[:cap(t.Slots)])
	}
	clear(d.leaves)
	clear(d.ptrs[:cap(d.ptrs)])
	d.n = 0
	derivations.Put(d)
}

// prune drops dominated templates and caps the count at maxK, keeping
// the template set sorted by β. A template T1 is dominated by T2 when
// T2's internal cost is no higher and every T1 slot is at least as
// constrained as the matching T2 slot (same mode and join column,
// required order extends T2's). It reorders and filters ts in place.
func prune(ts []*Template, maxK int) []*Template {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Internal < ts[j].Internal })
	kept := ts[:0]
	for _, t := range ts {
		dominated := false
		for _, winner := range kept {
			if dominates(winner, t) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, t)
		}
	}
	// Always retain the fallback (all-scan, no-order) template if
	// present, even beyond the cap.
	if len(kept) > maxK {
		var fallback *Template
		for _, t := range kept[maxK:] {
			if t.isFallback() {
				fallback = t
				break
			}
		}
		kept = kept[:maxK]
		if fallback != nil {
			hasFallback := false
			for _, t := range kept {
				if t.isFallback() {
					hasFallback = true
					break
				}
			}
			if !hasFallback {
				kept[len(kept)-1] = fallback
			}
		}
	}
	return kept
}

// isFallback reports whether every slot is an unconstrained scan.
func (t *Template) isFallback() bool {
	for _, s := range t.Slots {
		if s.Mode != SlotScan || len(s.RequiredOrder) > 0 {
			return false
		}
	}
	return true
}

// dominates reports whether template a makes template b redundant.
func dominates(a, b *Template) bool {
	if a.Internal > b.Internal*1.0001+1e-9 {
		return false
	}
	if len(a.Slots) != len(b.Slots) {
		return false
	}
	for i := range a.Slots {
		sa := &a.Slots[i]
		sb := b.slotOn(sa.Table)
		if sb == nil || sa.Mode != sb.Mode {
			return false
		}
		switch sa.Mode {
		case SlotLookup:
			if sa.JoinCol != sb.JoinCol || sa.Lookups > sb.Lookups*1.0001 {
				return false
			}
		case SlotScan:
			// a's requirement must be a prefix of b's (weaker or equal).
			if len(sa.RequiredOrder) > len(sb.RequiredOrder) || !slices.Equal(sa.RequiredOrder, sb.RequiredOrder[:len(sa.RequiredOrder)]) {
				return false
			}
		}
	}
	return true
}

// access prepares slot s of one of qi's templates for the γ kernel.
func (c *Cache) access(qi *QueryInfo, s *Slot) engine.Access {
	if s.Mode == SlotLookup {
		return c.Eng.LookupAccess(qi.Query, s.Table, s.JoinCol, s.Lookups, s.NeedCols)
	}
	return c.Eng.ScanAccess(qi.Query, s.Table, s.RequiredOrder, s.NeedCols)
}

// Gamma returns γ_{qkia}: the access cost of implementing slot si of
// template ti with index ix (nil means I∅, the heap). The boolean is
// false when the access method cannot implement the slot (γ = ∞). It is
// a pure function of its arguments — cost-model arithmetic with no
// optimizer call and nothing retained — and runs the one γ kernel
// (engine.SlotCost) that matrix compilation and Cost run too.
func (c *Cache) Gamma(qi *QueryInfo, ti, si int, ix *catalog.Index) (float64, bool) {
	a := c.access(qi, &qi.Templates[ti].Slots[si])
	c.Eng.AddSlotCostCalls(1)
	return c.Eng.SlotCost(&a, ix, c.Eng.IndexGeometry(ix))
}

// Cost returns the INUM approximation of cost(q, X): the minimum over
// template plans and atomic configurations of the instantiated plan
// cost. It never calls the what-if optimizer. This is the
// single-statement evaluator (what-if requests, query-cost
// constraints) and the reference QueryMatrix.Cost is tested against.
// It prices each distinct slot of the shape once, on its first use.
func (c *Cache) Cost(q *workload.Query, cfg *engine.Config) (float64, error) {
	qi := c.PrepareQuery(q)
	if len(qi.Templates) == 0 {
		return 0, fmt.Errorf("inum: no templates for query %s", q.ID)
	}
	// mins holds, per distinct slot of the shape, its cheapest access
	// once priced (NaN until then).
	en := qi.shape
	mins := make([]float64, len(en.slots))
	for d := range mins {
		mins[d] = math.NaN()
	}
	best := math.Inf(1)
	var calls int64
	for ti, t := range qi.Templates {
		total := t.Internal
		feasible := true
		for _, d := range en.refs[en.tmplOff[ti]:en.tmplOff[ti+1]] {
			slotBest := mins[d]
			if math.IsNaN(slotBest) {
				var runs int64
				slotBest, runs = c.slotMin(qi, en.slots[d], cfg)
				mins[d], calls = slotBest, calls+runs
			}
			if math.IsInf(slotBest, 1) {
				feasible = false
				break
			}
			total += slotBest
		}
		if feasible && total < best {
			best = total
		}
	}
	c.Eng.AddSlotCostCalls(calls)
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("inum: no instantiable template for query %s", q.ID)
	}
	return best, nil
}

// slotMin returns the cheapest access to slot s of one of qi's
// templates under cfg: the heap or an index of cfg on its table (+Inf
// when none applies), and the γ kernel runs that took.
func (c *Cache) slotMin(qi *QueryInfo, s *Slot, cfg *engine.Config) (float64, int64) {
	a := c.access(qi, s)
	best := math.Inf(1)
	if g, ok := c.Eng.SlotCost(&a, nil, catalog.Geometry{}); ok {
		best = g
	}
	onTable := cfg.OnTable(s.Table)
	for _, ix := range onTable {
		if g, ok := c.Eng.SlotCost(&a, ix, c.Eng.IndexGeometry(ix)); ok && g < best {
			best = g
		}
	}
	return best, 1 + int64(len(onTable))
}

// StatementCost mirrors engine.StatementCost but uses the INUM
// approximation for the query part.
func (c *Cache) StatementCost(s *workload.Statement, cfg *engine.Config) (float64, error) {
	if s.Query != nil {
		return c.Cost(s.Query, cfg)
	}
	u := s.Update
	cost, err := c.Cost(u.Shell(), cfg)
	if err != nil {
		return 0, err
	}
	for _, ix := range cfg.Indexes() {
		cost += c.Eng.UpdateCost(u, ix)
	}
	return cost + c.Eng.BaseUpdateCost(u), nil
}

// WorkloadCost returns Σ f_q · cost(q, X) using the INUM
// approximation throughout.
func (c *Cache) WorkloadCost(w *workload.Workload, cfg *engine.Config) (float64, error) {
	var sum float64
	for _, s := range w.Statements {
		v, err := c.StatementCost(s, cfg)
		if err != nil {
			return 0, err
		}
		sum += s.Weight * v
	}
	return sum, nil
}
