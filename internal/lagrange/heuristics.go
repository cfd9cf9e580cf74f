package lagrange

import (
	"math"
	"slices"
)

// heuristics derives candidate selections from the current dual state
// and the fractional z, repairs them to feasibility, evaluates them
// exactly, and updates the incumbent.
func (s *solver) heuristics(zf []float64) {
	if zf == nil {
		zf = make([]float64, s.m.NumIndexes)
	}
	// Candidate 1..3: threshold roundings of the fractional z.
	for _, thr := range []float64{0.5, 0.2, 0.05} {
		sel := make([]bool, s.m.NumIndexes)
		for a := range sel {
			sel[a] = (zf[a] > thr || s.fixedIn[a]) && !s.fixedOut[a]
		}
		s.tryCandidate(sel)
	}
	// Candidate 4: greedy by dual attractiveness per byte.
	s.tryCandidate(s.greedyByScore())
	// Candidate 5: everything admissible (repaired to the budget) —
	// the only reliable seed when per-statement cost caps demand many
	// indexes at once.
	if s.bestSel == nil {
		all := make([]bool, s.m.NumIndexes)
		for a := range all {
			all[a] = !s.fixedOut[a]
		}
		s.tryCandidate(all)
	}
	// Local search around the incumbent.
	if s.bestSel != nil {
		s.localSearch()
	}
}

// score is the dual-derived marginal value of index a.
func (s *solver) score(a int) float64 { return s.attract[a] - s.m.FixedCost[a] }

// keyed is an index with its sort key, computed once before the sort
// rather than on every comparison.
type keyed struct {
	a   int
	key float64
}

// ascending and descending order keyed indexes by key. Each is negative
// exactly when x.key < y.key (descending: >), the strict comparison the
// heuristics order by, so slices.SortFunc's pdqsort — the algorithm
// sort.Slice runs — leaves ties, and so every answer, where they were.
func ascending(x, y keyed) int {
	switch {
	case x.key < y.key:
		return -1
	case x.key > y.key:
		return 1
	}
	return 0
}

func descending(x, y keyed) int { return ascending(y, x) }

// greedyByScore builds a selection by adding indexes in descending
// score order while the budget and side constraints hold. A mandatory
// (fixed-in) index is added even when it breaks them.
//
// Whether the selection stays feasible with one more index is decided
// from running totals — the bytes selected and each side constraint's
// activity — rather than a SelectionFeasible pass per candidate. The
// totals are summed in selection order, not index order, which gives
// the same bits, and so the same decisions, while sizes and
// coefficients are integers below 2⁵³. BIPGen's always are:
// Index.Bytes is an int64 and count rows have coefficient 1.
func (s *solver) greedyByScore() []bool {
	m := s.m
	order := s.keys[:0]
	for a := 0; a < m.NumIndexes; a++ {
		if !s.fixedOut[a] && (s.score(a) > 0 || s.fixedIn[a]) {
			order = append(order, keyed{a, s.score(a) / math.Max(m.Size[a], 1)})
		}
	}
	s.keys = order
	slices.SortFunc(order, func(x, y keyed) int {
		// Mandatory indexes first, then by score density.
		if s.fixedIn[x.a] != s.fixedIn[y.a] {
			if s.fixedIn[x.a] {
				return -1
			}
			return 1
		}
		return descending(x, y)
	})
	sel := make([]bool, m.NumIndexes)
	var used float64
	act := make([]float64, len(m.Extra))  // activity of each side constraint under sel
	next := make([]float64, len(m.Extra)) // the same with a added
	for _, o := range order {
		a := o.a
		copy(next, act)
		for _, t := range s.rowTerms[a] {
			next[t.row] += t.coef
		}
		fits := !m.overBudget(used + m.Size[a])
		for r := range m.Extra {
			fits = fits && !m.Extra[r].violatedAt(next[r])
		}
		if fits || s.fixedIn[a] {
			sel[a] = true
			used += m.Size[a]
			act, next = next, act
		}
	}
	return sel
}

// setIncumbent promotes st's selection to incumbent and keeps st as the
// incumbent's cached state, so the next local search starts from it
// instead of re-evaluating the incumbent. Every change of incumbent
// goes through here; the cached state and its memoised flip outcomes
// are therefore always those of bestSel.
func (s *solver) setIncumbent(st *incState) {
	s.inc = st
	s.bestObj = st.total
	s.bestSel = slices.Clone(st.sel)
}

// tryCandidate repairs a selection to the budget, verifies all
// constraints and promotes it to incumbent if it improves. A repaired
// selection this solve has already priced (s.priced) is skipped when
// its total does not beat the incumbent: pricing it again would reach
// the same total and change nothing.
func (s *solver) tryCandidate(sel []bool) {
	m := s.m
	if sel == nil {
		return
	}
	// Budget repair: drop the lowest-value-per-byte selected indexes.
	if m.Budget >= 0 {
		var used float64
		for a, on := range sel {
			if on {
				used += m.Size[a]
			}
		}
		if used > m.Budget {
			cands := s.keys[:0]
			for a, on := range sel {
				if on && !s.fixedIn[a] {
					cands = append(cands, keyed{a, s.score(a) / math.Max(m.Size[a], 1)})
				}
			}
			s.keys = cands
			slices.SortFunc(cands, ascending)
			for _, c := range cands {
				if used <= m.Budget {
					break
				}
				sel[c.a] = false
				used -= m.Size[c.a]
			}
		}
	}
	if s.bestSel != nil && slices.Equal(sel, s.bestSel) {
		return // the incumbent itself: its objective is bestObj, no improvement
	}
	key := selectionKey(sel)
	if total, ok := s.priced[key]; ok && total >= s.bestObj {
		return
	}
	s.priced[key] = math.Inf(1)
	if ok, _ := m.SelectionFeasible(sel); !ok {
		return
	}
	st, ok := s.newIncState(sel)
	if !ok {
		return
	}
	s.priced[key] = st.total
	if st.total < s.bestObj {
		s.setIncumbent(st)
		s.emit()
	}
}

// selectionKey packs a selection into a string, one bit per index.
func selectionKey(sel []bool) string {
	b := make([]byte, (len(sel)+7)/8)
	for a, on := range sel {
		if on {
			b[a>>3] |= 1 << (a & 7)
		}
	}
	return string(b)
}

// localSearchBudget caps exact evaluations per local-search call.
const localSearchBudget = 24

// localSearch runs bounded add/drop passes around the incumbent. Every
// trial differs from the incumbent in one index, so it is priced with
// the incremental one-flip evaluator over the per-index
// block-incidence lists rather than a full objective pass. A trial's
// outcome depends only on the incumbent, so it is memoised in the
// incumbent's cached state and replayed — counted against the budget
// exactly as when it was priced — until the incumbent changes; the
// fixings only decide which indexes are tried. Call it only once there
// is an incumbent.
func (s *solver) localSearch() {
	m := s.m
	st := s.inc
	if st.flip == nil {
		st.flip = make([]flipOutcome, m.NumIndexes)
	}
	// tryFlip probes flipping index a: feasibility over the z polytope
	// first (cheap, needs the flipped selection in place), then the
	// incremental objective. On accept it commits and promotes.
	// evaluated reports whether the objective was actually priced —
	// infeasible flips do not count against the evaluation budget.
	tryFlip := func(a int) (accepted, evaluated bool) {
		switch st.flip[a] {
		case flipInfeasible:
			return false, false
		case flipRejected:
			return false, true
		}
		st.sel[a] = !st.sel[a]
		feasible, _ := m.SelectionFeasible(st.sel)
		st.sel[a] = !st.sel[a]
		if !feasible {
			st.flip[a] = flipInfeasible
			return false, false
		}
		obj, ok := s.flipObjective(st, a)
		if !ok || obj >= s.bestObj-1e-9 {
			st.flip[a] = flipRejected
			return false, true
		}
		s.commitFlip(st, a)
		s.setIncumbent(st)
		s.emit()
		return true, true
	}
	evals := 0
	improved := true
	for improved && evals < localSearchBudget {
		improved = false

		// Drop pass: least valuable selected first.
		selected := s.keys[:0]
		for a, on := range st.sel {
			if on && !s.fixedIn[a] {
				selected = append(selected, keyed{a, s.score(a)})
			}
		}
		s.keys = selected
		slices.SortFunc(selected, ascending)
		for _, c := range selected {
			if evals >= localSearchBudget {
				return
			}
			accepted, evaluated := tryFlip(c.a)
			if evaluated {
				evals++
			}
			if accepted {
				improved = true
				break
			}
		}

		// Add pass: most attractive unselected first.
		unselected := s.keys[:0]
		for a, on := range st.sel {
			if !on && !s.fixedOut[a] && s.score(a) > 0 {
				unselected = append(unselected, keyed{a, s.score(a)})
			}
		}
		s.keys = unselected
		slices.SortFunc(unselected, descending)
		if len(unselected) > 8 {
			unselected = unselected[:8]
		}
		for _, c := range unselected {
			if evals >= localSearchBudget {
				return
			}
			accepted, evaluated := tryFlip(c.a)
			if evaluated {
				evals++
			}
			if accepted {
				improved = true
				break
			}
		}
	}
}

// dropRedundant is the final cleanup pass: it removes incumbent
// indexes whose removal does not increase the objective (redundant
// twins, subsumed covers). Local search only accepts strict
// improvements, so zero-benefit redundancy survives it; this pass
// trades it away for free storage. Each candidate drop is a one-flip
// trial priced through the block-incidence lists, from the incumbent's
// cached state; call it only once there is an incumbent.
func (s *solver) dropRedundant() {
	st := s.inc
	for a := range st.sel {
		if !st.sel[a] {
			continue
		}
		st.sel[a] = false
		feas, _ := s.m.SelectionFeasible(st.sel)
		st.sel[a] = true
		if !feas {
			continue
		}
		obj, evalOK := s.flipObjective(st, a)
		if evalOK && obj <= s.bestObj*(1+1e-12) {
			s.commitFlip(st, a)
			s.bestObj = st.total
		}
	}
	s.setIncumbent(st)
}

// branch runs depth-first branch and bound from the root relaxation
// (bound rootLB), re-bounding each node with a short warm-started
// subgradient run. If the whole tree is resolved — every leaf pruned
// by infeasibility or by a bound that reaches the incumbent — the
// incumbent is proved optimal and the lower bound snaps to it.
func (s *solver) branch(rootLB float64, zf []float64, used []bool, maxNodes int) {
	nodesLeft := maxNodes
	complete := s.branchRec(rootLB, zf, used, &nodesLeft, 0)
	if complete && s.bestObj < math.Inf(1) && s.bestObj > s.lower {
		s.lower = s.bestObj
		s.emit()
	}
}

// branchRec explores the subtree under the current fixings, whose
// relaxation bound is nodeLB (−Inf when the subgradient run proved
// none). It returns true only when the subtree was exhaustively
// resolved: cut nowhere by node, depth or time limits, with every leaf
// pruned by infeasibility or by a bound that reaches the incumbent.
func (s *solver) branchRec(nodeLB float64, zf []float64, used []bool, nodesLeft *int, depth int) bool {
	if s.gap() <= s.opts.GapTol {
		return false // stopped early by request, not exhaustion
	}
	if depth > 40 {
		return false
	}
	a := s.pickBranchVar(zf, used)
	if a < 0 {
		// Relaxation consistent: realize it as an incumbent. The leaf
		// is resolved only if its bound now reaches the incumbent; a
		// consistent point does not prove that by itself (the bound may
		// come from another iteration, or from none, and per-block cost
		// caps are ignored by the dual).
		sel := make([]bool, s.m.NumIndexes)
		for i := range sel {
			sel[i] = (zf != nil && zf[i] > 0.5) || (used != nil && used[i]) || s.fixedIn[i]
			if s.fixedOut[i] {
				sel[i] = false
			}
		}
		s.tryCandidate(sel)
		return nodeLB >= s.bestObj*(1-1e-12)
	}
	// Explore the more promising side first: the side the fraction
	// leans toward, or "in" for a used-but-unselected index.
	order := []bool{true, false}
	if zf != nil && zf[a] < 0.5 && !used[a] {
		order = []bool{false, true}
	}
	complete := true
	for _, fixOn := range order {
		if *nodesLeft <= 0 || s.timeUp() {
			return false
		}
		*nodesLeft--
		s.nodeCount++
		if fixOn {
			s.fixedIn[a] = true
		} else {
			s.fixedOut[a] = true
		}
		lb, zChild, usedChild := s.subgradient(s.opts.NodeIters, false)
		switch {
		case math.IsInf(lb, 1):
			// Infeasible fixing: child fully pruned.
		case lb >= s.bestObj*(1-1e-12):
			// Bound-dominated: pruned.
		default:
			if !s.branchRec(lb, zChild, usedChild, nodesLeft, depth+1) {
				complete = false
			}
		}
		if fixOn {
			s.fixedIn[a] = false
		} else {
			s.fixedOut[a] = false
		}
	}
	return complete
}

// pickBranchVar returns the branching variable: the unfixed index with
// the most fractional z, or failing that the strongest x̂/ẑ
// disagreement (an index the block duals use but the z subproblem
// rejects). −1 means the relaxed solution is consistent.
func (s *solver) pickBranchVar(zf []float64, used []bool) int {
	best, bestScore := -1, 0.01
	for a := range s.fixedIn {
		if s.fixedIn[a] || s.fixedOut[a] {
			continue
		}
		var z float64
		if zf != nil {
			z = zf[a]
		}
		score := math.Min(z, 1-z) // fractionality
		if used != nil && used[a] && z < 1 {
			// Disagreement: used by blocks, not (fully) selected.
			if d := (1 - z) * 0.5; d > score {
				score = d
			}
		}
		if score > bestScore {
			bestScore = score
			best = a
		}
	}
	return best
}
