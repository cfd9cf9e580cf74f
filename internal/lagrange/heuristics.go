package lagrange

import (
	"math"
	"sort"
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

// greedyByScore builds a selection by adding indexes in descending
// score order while the budget and side constraints hold.
func (s *solver) greedyByScore() []bool {
	m := s.m
	order := make([]int, 0, m.NumIndexes)
	for a := 0; a < m.NumIndexes; a++ {
		if !s.fixedOut[a] && (s.score(a) > 0 || s.fixedIn[a]) {
			order = append(order, a)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		ai, aj := order[i], order[j]
		// Mandatory indexes first, then by score density.
		if s.fixedIn[ai] != s.fixedIn[aj] {
			return s.fixedIn[ai]
		}
		return s.score(ai)/math.Max(s.m.Size[ai], 1) > s.score(aj)/math.Max(s.m.Size[aj], 1)
	})
	sel := make([]bool, m.NumIndexes)
	for _, a := range order {
		sel[a] = true
		if ok, _ := m.SelectionFeasible(sel); !ok && !s.fixedIn[a] {
			sel[a] = false
		}
	}
	return sel
}

// tryCandidate repairs a selection to the budget, verifies all
// constraints and promotes it to incumbent if it improves.
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
			type cand struct {
				a       int
				density float64
			}
			var cands []cand
			for a, on := range sel {
				if on && !s.fixedIn[a] {
					cands = append(cands, cand{a, s.score(a) / math.Max(m.Size[a], 1)})
				}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].density < cands[j].density })
			for _, c := range cands {
				if used <= m.Budget {
					break
				}
				sel[c.a] = false
				used -= m.Size[c.a]
			}
		}
	}
	if ok, _ := m.SelectionFeasible(sel); !ok {
		return
	}
	obj, ok := m.Evaluate(sel)
	if !ok {
		return
	}
	if obj < s.bestObj {
		s.bestObj = obj
		s.bestSel = append([]bool(nil), sel...)
		s.emit()
	}
}

// localSearchBudget caps exact evaluations per local-search call.
const localSearchBudget = 24

// localSearch runs bounded add/drop passes around the incumbent. Every
// trial differs from the incumbent in one index, so it is priced with
// the incremental one-flip evaluator over the per-index
// block-incidence lists rather than a full objective pass.
func (s *solver) localSearch() {
	m := s.m
	st, stOK := s.newIncState(s.bestSel)
	if !stOK {
		return // incumbent not evaluable; nothing to search around
	}
	// tryFlip probes flipping index a: feasibility over the z polytope
	// first (cheap, needs the flipped selection in place), then the
	// incremental objective. On accept it commits and promotes.
	// evaluated reports whether the objective was actually priced —
	// infeasible flips do not count against the evaluation budget.
	tryFlip := func(a int) (accepted, evaluated bool) {
		st.sel[a] = !st.sel[a]
		feasible, _ := m.SelectionFeasible(st.sel)
		st.sel[a] = !st.sel[a]
		if !feasible {
			return false, false
		}
		obj, ok := s.flipObjective(st, a)
		if !ok || obj >= s.bestObj-1e-9 {
			return false, true
		}
		s.commitFlip(st, a)
		s.bestObj = st.total
		s.bestSel = append([]bool(nil), st.sel...)
		s.emit()
		return true, true
	}
	evals := 0
	improved := true
	for improved && evals < localSearchBudget {
		improved = false

		// Drop pass: least valuable selected first.
		var selected []int
		for a, on := range st.sel {
			if on && !s.fixedIn[a] {
				selected = append(selected, a)
			}
		}
		sort.Slice(selected, func(i, j int) bool { return s.score(selected[i]) < s.score(selected[j]) })
		for _, a := range selected {
			if evals >= localSearchBudget {
				return
			}
			accepted, evaluated := tryFlip(a)
			if evaluated {
				evals++
			}
			if accepted {
				improved = true
				break
			}
		}

		// Add pass: most attractive unselected first.
		var unselected []int
		for a, on := range st.sel {
			if !on && !s.fixedOut[a] && s.score(a) > 0 {
				unselected = append(unselected, a)
			}
		}
		sort.Slice(unselected, func(i, j int) bool { return s.score(unselected[i]) > s.score(unselected[j]) })
		if len(unselected) > 8 {
			unselected = unselected[:8]
		}
		for _, a := range unselected {
			if evals >= localSearchBudget {
				return
			}
			accepted, evaluated := tryFlip(a)
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
// trial priced through the block-incidence lists.
func (s *solver) dropRedundant() {
	if s.bestSel == nil {
		return
	}
	st, ok := s.newIncState(s.bestSel)
	if !ok {
		return
	}
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
	s.bestSel = append([]bool(nil), st.sel...)
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
