package inum

import (
	"math"
	"runtime"
	"slices"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/workload"
)

// CostMatrix is the compiled, dense form of the INUM cost model for
// one (workload, candidate set, baseline) triple: every γ_{qkia} is
// evaluated once (Cache.Gamma) and flattened into contiguous float64
// slabs with int32 slot→candidate compatibility lists, one list per
// distinct slot of a shape (equal slots of several templates price the
// same, so they are stored once and referenced), so evaluating
// cost(q, X) for any X ⊆ S is a branch-light walk over dense memory
// with zero allocation and no cost-model arithmetic. BIPGen and the ILP
// baseline's configuration enumeration both consume it; Cache.Cost,
// which evaluates one statement under one configuration directly, is
// the reference the equivalence property test checks it against.
//
// A slab is a pure function of (shape, candidate list, baseline): γ
// reads a query only through its predicates' selectivities, which the
// shape fingerprint records. So queries of one shape class — those
// whose templates came from one shape-cache entry — share one slab, and
// a matrix is updatable (Cache.UpdateMatrix): a later triple reuses
// every slab whose inputs it did not touch. The map is keyed by the
// query itself (its pointer), never by statement ID; its values are
// shared per class. The zero value is the empty matrix.
type CostMatrix struct {
	// S is the candidate universe; Compat entries are positions into S.
	S []*catalog.Index
	// baseline is the always-available configuration SlotFree is priced
	// under.
	baseline *engine.Config
	// byQuery maps each compiled query to its block.
	byQuery map[*workload.Query]*QueryMatrix
	// prepared holds the template sets PrepareMatrix looked up for the
	// next UpdateMatrix.
	prepared map[*workload.Query]*QueryInfo
}

// QueryMatrix is the dense γ block of one shape class, shared by every
// query of the class. It stores each distinct slot of the shape once:
// Refs[TmplOff[k]..TmplOff[k+1]] are the slots of template k, as
// distinct slot numbers, and SlotOff[d]..SlotOff[d+1] the compatible
// candidates of distinct slot d. It is immutable once compiled.
type QueryMatrix struct {
	// QI is the class member the slab was first compiled from, with its
	// templates: any member prices the same.
	QI *QueryInfo
	// Internal is β per template.
	Internal []float64
	// TmplOff offsets templates into Refs (len = #templates+1), and Refs
	// numbers each template's slots by distinct slot. Both are the shape
	// entry's (shapeEntry.tmplOff, shapeEntry.refs), shared: read only.
	TmplOff, Refs []int32
	// SlotFree is, per distinct slot, the cheapest always-available
	// access cost: min over I∅ and the baseline indexes (+Inf when none
	// applies).
	SlotFree []float64
	// SlotOff offsets distinct slots into Compat/Gamma (len =
	// #distinct slots+1).
	SlotOff []int32
	// Compat lists, per distinct slot and in ascending order, the
	// candidate positions whose γ is below SlotFree — the only ones that
	// can set the slot's cost.
	Compat []int32
	// Gamma holds the access costs aligned with Compat.
	Gamma []float64
}

// CompileMatrix builds the dense cost matrix for the workload's
// queries (and update shells) over candidate set s with baseline
// always-available indexes: UpdateMatrix on an empty matrix.
func (c *Cache) CompileMatrix(w *workload.Workload, s []*catalog.Index, baseline *engine.Config, workers int) *CostMatrix {
	cm := &CostMatrix{}
	c.UpdateMatrix(cm, w, s, baseline, workers)
	return cm
}

// distinctQueries returns the SELECT statements plus the update query
// shells of w — exactly the statements BIPGen emits blocks for — each
// once: statements can repeat a query (weighted duplicates).
func distinctQueries(w *workload.Workload) []*workload.Query {
	stmts := w.Queries()
	seen := make(map[*workload.Query]bool, len(stmts))
	queries := make([]*workload.Query, 0, len(stmts))
	for _, st := range stmts {
		if !seen[st.Query] {
			seen[st.Query] = true
			queries = append(queries, st.Query)
		}
	}
	return queries
}

// PrepareMatrix looks up the template sets of the queries of w that cm
// holds no slab for, fanned out across workers (0 = GOMAXPROCS), and
// keeps them for the next UpdateMatrix. These are the only INUM lookups
// bringing cm to w costs: a query with a slab keeps the templates its
// slab was compiled from, which the immutable query's shape determines.
func (c *Cache) PrepareMatrix(cm *CostMatrix, w *workload.Workload, workers int) {
	var missing []*workload.Query
	for _, q := range distinctQueries(w) {
		if cm.byQuery[q] == nil {
			missing = append(missing, q)
		}
	}
	infos := make([]*QueryInfo, len(missing))
	par.For(len(missing), workers, func(i int) { infos[i] = c.PrepareQuery(missing[i]) })
	cm.prepared = make(map[*workload.Query]*QueryInfo, len(missing))
	for i, q := range missing {
		cm.prepared[q] = infos[i]
	}
}

// UpdateMatrix brings cm to (w, s, baseline), compiling only what the
// previous triple does not already hold. Queries are grouped into shape
// classes by the shape-cache entry their templates came from, and each
// class gets one slab, compiled once and shared by its members. A query
// keeps its slab's class; other queries take their templates from
// PrepareMatrix, or look them up here. One rule relates the old
// candidate list to s: walking both by pointer, the old candidates found
// in s, in their old order, are s[:from], and everything after from
// counts as appended — a survivor that moved out of order included. A
// kept slab renumbers its entries to their new positions, drops those of
// dropped candidates and evaluates γ for the appended positions alone.
// Positions stay ascending and neither γ nor SlotFree depends on them,
// so the result equals a from-scratch compile bit for bit, and a drop
// costs no γ evaluation. Only a baseline change compiles every slab from
// nothing. Slabs of classes no longer in w are dropped, so the matrix
// never outgrows the workload it was last brought to. Classes are
// independent, so compilation fans out across workers (0 = GOMAXPROCS);
// each worker writes only its own classes' slabs.
func (c *Cache) UpdateMatrix(cm *CostMatrix, w *workload.Workload, s []*catalog.Index, baseline *engine.Config, workers int) {
	old, prepared, baselineChanged := cm.byQuery, cm.prepared, cm.baseline != baseline
	// perm[i] is the new position of old candidate i, or -1 when it is
	// not in s[:from]; nil when every old candidate kept its position.
	perm := make([]int32, len(cm.S))
	from := 0
	for i, ix := range cm.S {
		perm[i] = -1
		if from < len(s) && s[from] == ix {
			perm[i] = int32(from)
			from++
		}
	}
	if from == len(cm.S) {
		perm = nil
	}

	// Candidate positions grouped per table, so slot compilation only
	// scans same-table candidates: all of them for a new slab, the
	// appended ones for a kept slab. Every index's page geometry is
	// computed here, once, rather than per slot it is priced on.
	all := make(map[string][]int32)
	added := make(map[string][]int32)
	in := compileInputs{s: s, perm: perm, geo: make([]catalog.Geometry, len(s)), baseline: baseline, baseGeo: map[*catalog.Index]catalog.Geometry{}}
	for i, ix := range s {
		all[ix.Table] = append(all[ix.Table], int32(i))
		if i >= from {
			added[ix.Table] = append(added[ix.Table], int32(i))
		}
		in.geo[i] = c.Eng.IndexGeometry(ix)
	}
	for _, bx := range baseline.Indexes() {
		in.baseGeo[bx] = c.Eng.IndexGeometry(bx)
	}

	queries := distinctQueries(w)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	infos := make([]*QueryInfo, len(queries))
	var lookup []int
	for i, q := range queries {
		switch prev := old[q]; {
		case prev != nil:
			infos[i] = prev.QI
		case prepared[q] != nil:
			infos[i] = prepared[q]
		default:
			lookup = append(lookup, i)
		}
	}
	par.For(len(lookup), workers, func(k int) { infos[lookup[k]] = c.PrepareQuery(queries[lookup[k]]) })

	// classes[k] is one shape class: the member it compiles from and the
	// slab it had, if any member had one.
	type class struct {
		qi   *QueryInfo
		prev *QueryMatrix
	}
	var classes []class
	index := make(map[*shapeEntry]int)
	member := make([]int, len(queries))
	for i, q := range queries {
		k, ok := index[infos[i].shape]
		if !ok {
			k = len(classes)
			index[infos[i].shape] = k
			classes = append(classes, class{qi: infos[i]})
		}
		if prev := old[q]; prev != nil && classes[k].prev == nil {
			classes[k] = class{qi: prev.QI, prev: prev}
		}
		member[i] = k
	}

	mats := make([]*QueryMatrix, len(classes))
	bufs := make([]slabBuf, workers)
	par.ForWorker(len(classes), workers, func(worker, k int) {
		if cl := classes[k]; cl.prev != nil && !baselineChanged {
			mats[k] = c.compileQuery(&in, cl.qi, cl.prev, added, &bufs[worker])
		} else {
			mats[k] = c.compileQuery(&in, cl.qi, nil, all, &bufs[worker])
		}
	})

	byQuery := make(map[*workload.Query]*QueryMatrix, len(queries))
	for i, q := range queries {
		byQuery[q] = mats[member[i]]
	}
	*cm = CostMatrix{S: s, baseline: baseline, byQuery: byQuery}
}

// compileInputs is what one UpdateMatrix fixes for every slab it
// compiles: the candidate list with each candidate's page geometry, the
// renumbering of kept entries, and the baseline with its indexes'
// geometry.
type compileInputs struct {
	s        []*catalog.Index
	geo      []catalog.Geometry
	perm     []int32
	baseline *engine.Config
	baseGeo  map[*catalog.Index]catalog.Geometry
}

// slabBuf is a worker's scratch for the entry lists of the slab it is
// compiling: their length is known only once every γ is evaluated, and a
// slab outlives the compile (sessions keep it), so it is filled here and
// copied out at its exact size. The trailing pad keeps two workers'
// buffer headers, which each compile rewrites, off a shared cache line.
type slabBuf struct {
	compat []int32
	gamma  []float64
	_      [64]byte
}

// compileQuery flattens one shape class's γ values into a QueryMatrix:
// per distinct slot of the shape, prev's entries (none when prev is nil)
// renumbered through in.perm (nil = kept in place), followed by γ of
// the candidate positions in byTable, which must all lie beyond the
// renumbered ones. A slot's Access is prepared once, before its
// candidates. The slab's γ calls are counted locally and reported to the
// engine once.
func (c *Cache) compileQuery(in *compileInputs, qi *QueryInfo, prev *QueryMatrix, byTable map[string][]int32, buf *slabBuf) *QueryMatrix {
	en := qi.shape
	scan := 0
	for _, slot := range en.slots {
		scan += len(byTable[slot.Table])
	}
	if prev != nil && in.perm == nil && scan == 0 {
		return prev
	}
	qm := &QueryMatrix{
		QI:       qi,
		Internal: make([]float64, len(qi.Templates)),
		TmplOff:  en.tmplOff,
		Refs:     en.refs,
		SlotFree: make([]float64, len(en.slots)),
		SlotOff:  make([]int32, 1, len(en.slots)+1),
	}
	for ti, tpl := range qi.Templates {
		qm.Internal[ti] = tpl.Internal
	}
	compat, gamma := buf.compat[:0], buf.gamma[:0]
	var calls int64
	for d, slot := range en.slots {
		positions := byTable[slot.Table]
		var a engine.Access
		if prev == nil || len(positions) > 0 {
			a = c.access(qi, slot)
		}
		free := math.Inf(1)
		if prev != nil {
			free = prev.SlotFree[d]
			for k := prev.SlotOff[d]; k < prev.SlotOff[d+1]; k++ {
				pos := prev.Compat[k]
				if in.perm != nil {
					if pos = in.perm[pos]; pos < 0 {
						continue
					}
				}
				compat = append(compat, pos)
				gamma = append(gamma, prev.Gamma[k])
			}
		} else {
			if g, ok := c.Eng.SlotCost(&a, nil, catalog.Geometry{}); ok {
				free = g
			}
			onTable := in.baseline.OnTable(slot.Table)
			calls += 1 + int64(len(onTable))
			for _, bx := range onTable {
				if g, ok := c.Eng.SlotCost(&a, bx, in.baseGeo[bx]); ok && g < free {
					free = g
				}
			}
		}
		qm.SlotFree[d] = free
		calls += int64(len(positions))
		for _, pos := range positions {
			// A candidate no cheaper than the free access never wins
			// the slot's minimum; it is not stored.
			if g, ok := c.Eng.SlotCost(&a, in.s[pos], in.geo[pos]); ok && g < free {
				compat = append(compat, pos)
				gamma = append(gamma, g)
			}
		}
		qm.SlotOff = append(qm.SlotOff, int32(len(compat)))
	}
	qm.Compat, qm.Gamma = slices.Clone(compat), slices.Clone(gamma)
	buf.compat, buf.gamma = compat, gamma
	c.Eng.AddSlotCostCalls(calls)
	return qm
}

// Len returns the number of compiled queries (not slabs: queries of
// one shape class share theirs).
func (cm *CostMatrix) Len() int { return len(cm.byQuery) }

// Query returns the compiled block of a query — its shape class's
// slab — or nil when the query (this very statement, not merely its ID)
// was not part of the compiled workload.
func (cm *CostMatrix) Query(q *workload.Query) *QueryMatrix {
	return cm.byQuery[q]
}

// Cost is the dense evaluation of cost(q, X) for X = baseline ∪
// {S[a] : selected[a]}: the minimum over templates of β plus, per
// slot, the cheapest of the free access and the selected compatible
// candidates. It mirrors Cache.Cost exactly (the property test holds
// them to 1e-9) but performs no map lookups and no allocation.
func (qm *QueryMatrix) Cost(selected []bool) (float64, bool) {
	return qm.CostDelta(selected, -1)
}

// CostDelta evaluates Cost as if selected[extra] were additionally
// set (extra < 0 means no addition — Cost delegates here with -1).
// It lets single-index benefit scans avoid mutating the selection
// buffer.
func (qm *QueryMatrix) CostDelta(selected []bool, extra int32) (float64, bool) {
	best := math.Inf(1)
	for ti := 0; ti < len(qm.Internal); ti++ {
		total := qm.Internal[ti]
		feasible := true
		for _, si := range qm.Refs[qm.TmplOff[ti]:qm.TmplOff[ti+1]] {
			slotBest := qm.SlotFree[si]
			lo, hi := qm.SlotOff[si], qm.SlotOff[si+1]
			for k := lo; k < hi; k++ {
				a := qm.Compat[k]
				if (a == extra || selected[a]) && qm.Gamma[k] < slotBest {
					slotBest = qm.Gamma[k]
				}
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
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}
