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
// slabs with int32 slot→candidate compatibility lists, so evaluating
// cost(q, X) for any X ⊆ S is a branch-light walk over dense memory
// with zero allocation and no cost-model arithmetic. BIPGen and the ILP
// baseline's configuration enumeration both consume it; Cache.Cost,
// which evaluates one statement under one configuration directly, is
// the reference the equivalence property test checks it against.
//
// A matrix is updatable (Cache.UpdateMatrix): a slab is a pure function
// of (query, candidate list, baseline), so a later triple reuses every
// slab whose inputs it did not touch. Slabs are keyed by the query
// itself (its pointer), never by statement ID. The zero value is the
// empty matrix.
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

// QueryMatrix is the dense γ block of one query. Slots are numbered
// globally across templates; TmplOff[k]..TmplOff[k+1] are the slots of
// template k, and SlotOff[s]..SlotOff[s+1] the compatible candidates
// of slot s. It is immutable once compiled.
type QueryMatrix struct {
	// QI is the query with the templates the slab was compiled from.
	QI *QueryInfo
	// Internal is β per template.
	Internal []float64
	// TmplOff offsets templates into the slot arrays (len = #templates+1).
	TmplOff []int32
	// SlotFree is, per slot, the cheapest always-available access cost:
	// min over I∅ and the baseline indexes (+Inf when none applies).
	SlotFree []float64
	// SlotOff offsets slots into Compat/Gamma (len = #slots+1).
	SlotOff []int32
	// Compat lists, per slot and in ascending order, the candidate
	// positions whose γ is below SlotFree — the only ones that can set
	// the slot's cost.
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
// previous triple does not already hold. A query keeps its slab's
// templates; other queries take theirs from PrepareMatrix, or look them
// up here. One rule relates the old candidate list to s: walking both by
// pointer, the old candidates found in s, in their old order, are
// s[:from], and everything after from counts as appended — a survivor
// that moved out of order included. A kept slab renumbers its entries
// to their new positions, drops those of dropped candidates and
// evaluates γ for the appended positions alone. Positions stay
// ascending and neither γ nor SlotFree depends on them, so the result
// equals a from-scratch compile bit for bit, and a drop costs no γ
// evaluation. Only a baseline change compiles every slab from nothing.
// Slabs of queries no longer in w are dropped, so the matrix never
// outgrows the workload it was last brought to. Queries are
// independent, so compilation fans out across workers (0 = GOMAXPROCS);
// each worker writes only its own queries' entries.
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
	// appended ones for a kept slab.
	all := make(map[string][]int32)
	added := make(map[string][]int32)
	for i, ix := range s {
		all[ix.Table] = append(all[ix.Table], int32(i))
		if i >= from {
			added[ix.Table] = append(added[ix.Table], int32(i))
		}
	}

	queries := distinctQueries(w)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mats := make([]*QueryMatrix, len(queries))
	bufs := make([]slabBuf, workers)
	par.ForWorker(len(queries), workers, func(worker, i int) {
		q := queries[i]
		switch prev := old[q]; {
		case prev != nil && !baselineChanged:
			mats[i] = c.compileQuery(prev.QI, prev, perm, s, added, baseline, &bufs[worker])
		case prev != nil:
			mats[i] = c.compileQuery(prev.QI, nil, nil, s, all, baseline, &bufs[worker])
		default:
			qi := prepared[q]
			if qi == nil {
				qi = c.PrepareQuery(q)
			}
			mats[i] = c.compileQuery(qi, nil, nil, s, all, baseline, &bufs[worker])
		}
	})

	byQuery := make(map[*workload.Query]*QueryMatrix, len(queries))
	for i, q := range queries {
		byQuery[q] = mats[i]
	}
	*cm = CostMatrix{S: s, baseline: baseline, byQuery: byQuery}
}

// slabBuf is a worker's scratch for the entry lists of the slab it is
// compiling: their length is known only once every γ is evaluated, and a
// slab outlives the compile (sessions keep it), so it is filled here and
// copied out at its exact size.
type slabBuf struct {
	compat []int32
	gamma  []float64
}

// compileQuery flattens one query's γ values into a QueryMatrix: prev's
// entries (none when prev is nil) renumbered through perm (nil = kept
// in place), followed, slot by slot, by γ of the candidate positions in
// byTable, which must all lie beyond the renumbered ones.
func (c *Cache) compileQuery(qi *QueryInfo, prev *QueryMatrix, perm []int32, s []*catalog.Index, byTable map[string][]int32, baseline *engine.Config, buf *slabBuf) *QueryMatrix {
	slots, scan := 0, 0
	for _, tpl := range qi.Templates {
		slots += len(tpl.Slots)
		for si := range tpl.Slots {
			scan += len(byTable[tpl.Slots[si].Table])
		}
	}
	if prev != nil && perm == nil && scan == 0 {
		return prev
	}
	qm := &QueryMatrix{
		QI:       qi,
		Internal: make([]float64, len(qi.Templates)),
		TmplOff:  make([]int32, 1, len(qi.Templates)+1),
		SlotFree: make([]float64, 0, slots),
		SlotOff:  make([]int32, 1, slots+1),
	}
	compat, gamma := buf.compat[:0], buf.gamma[:0]
	for ti, tpl := range qi.Templates {
		qm.Internal[ti] = tpl.Internal
		for si := range tpl.Slots {
			slot := &tpl.Slots[si]
			free := math.Inf(1)
			if n := len(qm.SlotFree); prev != nil {
				free = prev.SlotFree[n]
				for k := prev.SlotOff[n]; k < prev.SlotOff[n+1]; k++ {
					pos := prev.Compat[k]
					if perm != nil {
						if pos = perm[pos]; pos < 0 {
							continue
						}
					}
					compat = append(compat, pos)
					gamma = append(gamma, prev.Gamma[k])
				}
			} else {
				if g, ok := c.Gamma(qi, ti, si, nil); ok {
					free = g
				}
				for _, bx := range baseline.OnTable(slot.Table) {
					if g, ok := c.Gamma(qi, ti, si, bx); ok && g < free {
						free = g
					}
				}
			}
			qm.SlotFree = append(qm.SlotFree, free)
			for _, pos := range byTable[slot.Table] {
				// A candidate no cheaper than the free access never wins
				// the slot's minimum; it is not stored.
				if g, ok := c.Gamma(qi, ti, si, s[pos]); ok && g < free {
					compat = append(compat, pos)
					gamma = append(gamma, g)
				}
			}
			qm.SlotOff = append(qm.SlotOff, int32(len(compat)))
		}
		qm.TmplOff = append(qm.TmplOff, int32(len(qm.SlotFree)))
	}
	qm.Compat, qm.Gamma = slices.Clone(compat), slices.Clone(gamma)
	buf.compat, buf.gamma = compat, gamma
	return qm
}

// Len returns the number of compiled queries.
func (cm *CostMatrix) Len() int { return len(cm.byQuery) }

// Query returns the compiled block of a query, or nil when the query
// (this very statement, not merely its ID) was not part of the compiled
// workload.
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
		for si := qm.TmplOff[ti]; si < qm.TmplOff[ti+1]; si++ {
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
