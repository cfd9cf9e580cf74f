package inum

import (
	"math"

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
type CostMatrix struct {
	// S is the candidate universe; Compat entries are positions into S.
	S []*catalog.Index
	// byQuery maps query ID to its compiled block.
	byQuery map[string]*QueryMatrix
}

// QueryMatrix is the dense γ block of one query. Slots are numbered
// globally across templates; TmplOff[k]..TmplOff[k+1] are the slots of
// template k, and SlotOff[s]..SlotOff[s+1] the compatible candidates
// of slot s.
type QueryMatrix struct {
	// QI is the underlying cache entry (template structure).
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
	// Compat lists the candidate positions with finite γ per slot.
	Compat []int32
	// Gamma holds the access costs aligned with Compat.
	Gamma []float64
}

// CompileMatrix builds the dense cost matrix for the workload's
// queries (and update shells) over candidate set s with baseline
// always-available indexes. Queries are independent, so compilation
// fans out across workers (0 = GOMAXPROCS); each worker writes only
// its own queries' entries.
func (c *Cache) CompileMatrix(w *workload.Workload, s []*catalog.Index, baseline *engine.Config, workers int) *CostMatrix {
	cm := &CostMatrix{S: s, byQuery: make(map[string]*QueryMatrix)}

	// Candidate positions grouped per table, so slot compilation only
	// scans same-table candidates.
	byTable := make(map[string][]int32)
	for i, ix := range s {
		byTable[ix.Table] = append(byTable[ix.Table], int32(i))
	}

	// Queries() yields the SELECT statements plus the update query
	// shells — exactly the statements BIPGen emits blocks for.
	// Statements can repeat a query ID (weighted duplicates); compile
	// each distinct query once.
	stmts := w.Queries()
	queries := make([]*workload.Query, 0, len(stmts))
	seen := make(map[string]bool, len(stmts))
	for _, st := range stmts {
		if !seen[st.Query.ID] {
			seen[st.Query.ID] = true
			queries = append(queries, st.Query)
		}
	}

	mats := make([]*QueryMatrix, len(queries))
	par.For(len(queries), workers, func(i int) {
		mats[i] = c.compileQuery(queries[i], s, byTable, baseline)
	})

	for i, q := range queries {
		cm.byQuery[q.ID] = mats[i]
	}
	return cm
}

// compileQuery flattens one query's γ values into a QueryMatrix.
func (c *Cache) compileQuery(q *workload.Query, s []*catalog.Index, byTable map[string][]int32, baseline *engine.Config) *QueryMatrix {
	qi := c.PrepareQuery(q)
	qm := &QueryMatrix{
		QI:       qi,
		Internal: make([]float64, len(qi.Templates)),
		TmplOff:  make([]int32, 1, len(qi.Templates)+1),
		SlotOff:  make([]int32, 1, 8),
	}
	for ti, tpl := range qi.Templates {
		qm.Internal[ti] = tpl.Internal
		for si := range tpl.Slots {
			slot := &tpl.Slots[si]

			free := math.Inf(1)
			if g, ok := c.Gamma(qi, ti, si, nil); ok {
				free = g
			}
			for _, bx := range baseline.OnTable(slot.Table) {
				if g, ok := c.Gamma(qi, ti, si, bx); ok && g < free {
					free = g
				}
			}
			qm.SlotFree = append(qm.SlotFree, free)

			for _, pos := range byTable[slot.Table] {
				if g, ok := c.Gamma(qi, ti, si, s[pos]); ok {
					qm.Compat = append(qm.Compat, pos)
					qm.Gamma = append(qm.Gamma, g)
				}
			}
			qm.SlotOff = append(qm.SlotOff, int32(len(qm.Compat)))
		}
		qm.TmplOff = append(qm.TmplOff, int32(len(qm.SlotFree)))
	}
	return qm
}

// Query returns the compiled block of a query, or nil when the query
// was not part of the compiled workload.
func (cm *CostMatrix) Query(q *workload.Query) *QueryMatrix {
	return cm.byQuery[q.ID]
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
