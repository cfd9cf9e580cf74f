package cophy

import (
	"math"
	"slices"

	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/par"
)

// dominatedMask marks the candidates of a model that another candidate
// strictly dominates, reading γ from the distinct slabs the model's
// blocks are built from (each listed once), over the slots of the
// templates BIPGen emits. BIPGen emits no option of a marked
// candidate; its z variable stays, so positions do not move.
//
// j dominates i (j ⪰ i) when Size[j] ≤ Size[i], FixedCost[j] ≤
// FixedCost[i], every slot that lists i also lists j with γ_j ≤ γ_i,
// and every side row allows the swap (a missing term counts as 0): an
// LE row needs coef_j ≤ coef_i and coef_i ≥ 0, a GE row coef_j ≥ coef_i
// and coef_i ≤ 0, an EQ row both coefficients 0. Putting j in i's
// place, or dropping i when j is already selected, then keeps any
// selection feasible and costs no more. ⪰ is transitive, so each marked
// candidate has an unmarked dominator, and the BIP over the unmarked
// candidates has the optimum of the full one. i is marked iff some
// j ⪰ i while not i ⪰ j: twins (each dominating the other) are all
// kept, so the mask depends on the candidate set, not on its order.
// The per-candidate tests fan out across workers (0 = GOMAXPROCS); each
// writes only its own mask[i].
func dominatedMask(key *maskKey, workers int) []bool {
	n, rows := len(key.size), key.rows
	mask := make([]bool, n)

	// Transpose the slabs' live slots — the distinct slots of the
	// templates buildChoices emits, each once, with at least one
	// candidate listed — into candidate i's entries ent[off[i]:off[i+1]]:
	// its (slot, γ) pairs in ascending global slot order, slot g being
	// refs[g]. sig is a 64-bit summary of a candidate's slot set, so
	// sig[i] &^ sig[j] != 0 proves some slot of i does not list j.
	var refs []slotRef
	for _, qm := range key.slabs {
		walked := make([]bool, len(qm.SlotFree))
		for ti := range len(qm.Internal) {
			tmpl := qm.Refs[qm.TmplOff[ti]:qm.TmplOff[ti+1]]
			if !fillable(qm, tmpl) {
				continue
			}
			for _, si := range tmpl {
				if w := qm.SlotOff[si+1] - qm.SlotOff[si]; w > 0 && !walked[si] {
					walked[si] = true
					refs = append(refs, slotRef{qm, si, w})
				}
			}
		}
	}
	off := make([]int32, n+1)
	for _, r := range refs {
		compat, _ := r.window()
		for _, c := range compat {
			off[c+1]++
		}
	}
	for i := range n {
		off[i+1] += off[i]
	}
	type entry struct {
		g     int32
		gamma float64
	}
	ent := make([]entry, off[n])
	sig := make([]uint64, n)
	fill := append([]int32(nil), off[:n]...)
	for g, r := range refs {
		compat, gam := r.window()
		for k, c := range compat {
			ent[fill[c]] = entry{int32(g), gam[k]}
			fill[c]++
			sig[c] |= 1 << (g & 63)
		}
	}
	listed := func(i int32) int32 { return off[i+1] - off[i] }

	// covers reports whether j ⪰ i holds on the slots, and whether it
	// holds strictly there; both lists are ascending.
	covers := func(j, i int32) (ok, strict bool) {
		ej := ent[off[j]:off[j+1]]
		for _, e := range ent[off[i]:off[i+1]] {
			for len(ej) > 0 && ej[0].g < e.g {
				ej = ej[1:]
			}
			if len(ej) == 0 || ej[0].g != e.g || ej[0].gamma > e.gamma {
				return false, false
			}
			strict = strict || ej[0].gamma < e.gamma
		}
		return true, strict || listed(j) > listed(i)
	}
	// geq reports j ⪰ i on everything but the slots.
	geq := func(j, i int32) bool {
		return key.size[j] <= key.size[i] && key.fixedCost[j] <= key.fixedCost[i] && rows.allow(j, i)
	}

	// dominated reports whether some candidate strictly dominates i.
	dominated := func(i int32) bool {
		if listed(i) == 0 {
			// Listed in no slot: every candidate covers it, and one listed
			// anywhere covers it strictly.
			for j := range int32(n) {
				if j != i && geq(j, i) && (listed(j) > 0 || !geq(i, j)) {
					return true
				}
			}
			return false
		}
		// Every dominator is listed in each slot of i: scan i's sparsest.
		best := ent[off[i]]
		for _, e := range ent[off[i]+1 : off[i+1]] {
			if refs[e.g].width < refs[best.g].width {
				best = e
			}
		}
		compat, gam := refs[best.g].window()
		for k, j := range compat {
			if j == i || gam[k] > best.gamma || sig[i]&^sig[j] != 0 || listed(j) < listed(i) || !geq(j, i) {
				continue
			}
			if ok, strict := covers(j, i); ok && (strict || !geq(i, j)) {
				return true
			}
		}
		return false
	}
	par.For(n, workers, func(i int) { mask[i] = dominated(int32(i)) })
	return mask
}

// fillable reports whether every distinct slot of the slab in tmpl has
// an option, the free access or a candidate: buildChoices emits the
// template of those slots only then.
func fillable(qm *inum.QueryMatrix, tmpl []int32) bool {
	for _, si := range tmpl {
		if math.IsInf(qm.SlotFree[si], 1) && qm.SlotOff[si] == qm.SlotOff[si+1] {
			return false
		}
	}
	return true
}

// maskKey is everything dominatedMask reads of a model: its distinct
// slabs, sizes, maintenance costs and side rows. Equal keys give equal
// masks, so a re-solve that changed only weights, the budget or cost
// caps reuses the mask its session kept.
type maskKey struct {
	slabs           []*inum.QueryMatrix
	size, fixedCost []float64
	rows            rowCoefs
}

func newMaskKey(m *lagrange.Model, slabs []*inum.QueryMatrix) maskKey {
	return maskKey{slabs, slices.Clone(m.Size), slices.Clone(m.FixedCost), newRowCoefs(m)}
}

func (k *maskKey) equal(o *maskKey) bool {
	return slices.Equal(k.slabs, o.slabs) && slices.Equal(k.size, o.size) && slices.Equal(k.fixedCost, o.fixedCost) &&
		slices.Equal(k.rows.sense, o.rows.sense) && slices.Equal(k.rows.coef, o.rows.coef)
}

// slotRef names distinct slot si of a slab, listing width candidates.
type slotRef struct {
	qm    *inum.QueryMatrix
	si    int32
	width int32
}

// window returns the candidates the slot lists and their γ.
func (r slotRef) window() ([]int32, []float64) {
	lo, hi := r.qm.SlotOff[r.si], r.qm.SlotOff[r.si+1]
	return r.qm.Compat[lo:hi], r.qm.Gamma[lo:hi]
}

// rowCoefs lays out a model's side rows for the dominance test:
// coef[r*n+a] is candidate a's coefficient in row r (0 when absent).
type rowCoefs struct {
	n     int
	sense []lp.Sense
	coef  []float64
}

func newRowCoefs(m *lagrange.Model) rowCoefs {
	rc := rowCoefs{n: m.NumIndexes, coef: make([]float64, len(m.Extra)*m.NumIndexes)}
	for r, c := range m.Extra {
		rc.sense = append(rc.sense, c.Sense)
		for _, t := range c.Terms {
			rc.coef[r*rc.n+int(t.Index)] += t.Coef
		}
	}
	return rc
}

// allow reports whether every side row lets j take i's place.
func (rc rowCoefs) allow(j, i int32) bool {
	for r, sense := range rc.sense {
		cj, ci := rc.coef[r*rc.n+int(j)], rc.coef[r*rc.n+int(i)]
		switch sense {
		case lp.LE:
			if cj > ci || ci < 0 {
				return false
			}
		case lp.GE:
			if cj < ci || ci > 0 {
				return false
			}
		default: // EQ
			if cj != 0 || ci != 0 {
				return false
			}
		}
	}
	return true
}
