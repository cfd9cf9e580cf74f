package lagrange

import "slices"

// Incremental one-flip evaluation. The local search and the redundancy
// sweep both explore neighbors of the incumbent that differ in exactly
// one index. A full objective evaluation walks every block; a one-flip
// trial only needs the blocks that reference the flipped index — the
// per-index block-incidence lists built in compile. On workloads where
// each index serves a handful of statements this turns each trial from
// O(total options) into O(options of the affected blocks).

// incState caches the incumbent's per-block primal values so one-flip
// trials re-evaluate only the affected blocks. sel is owned by the
// state; callers may flip an entry temporarily (e.g. to probe
// SelectionFeasible) as long as they restore it.
type incState struct {
	sel      []bool
	blockVal []float64
	// total is the full objective of sel, always summed in
	// Model.Evaluate's order so it stays bit-equal to m.Evaluate(sel).
	total float64
	// flip memoises the local search's one-flip outcomes against sel
	// (indexed by index, allocated on first use). An outcome depends on
	// the selection alone, so it holds until commitFlip changes sel.
	flip []flipOutcome
}

// flipOutcome is what a one-flip trial of the local search concluded.
type flipOutcome uint8

const (
	flipUntried    flipOutcome = iota
	flipInfeasible             // the flipped selection breaks the budget or a side constraint
	flipRejected               // priced, and not an improvement (or breaks a cost cap)
)

// newIncState evaluates sel from scratch (copying it) with the solver's
// workers and caches the per-block primal values. ok is false when sel
// is not evaluable or violates a per-statement cost cap.
func (s *solver) newIncState(sel []bool) (*incState, bool) {
	st := &incState{
		sel:      slices.Clone(sel),
		blockVal: make([]float64, len(s.m.Blocks)),
	}
	total, ok := s.m.evaluate(st.sel, s.scratches, st.blockVal)
	if !ok {
		return nil, false
	}
	st.total = total
	return st, true
}

// totalOf sums the objective from the cached block values in exactly
// Model.Evaluate's order: Const, then fixed costs in index order, then
// weighted block values in block order. Identical order and per-block
// values from the same blockPrimal keep the result bit-equal to
// m.Evaluate(st.sel).
func (s *solver) totalOf(st *incState) float64 {
	total := s.m.Const
	for a, on := range st.sel {
		if on {
			total += s.m.FixedCost[a]
		}
	}
	for bi := range s.m.Blocks {
		total += s.m.Blocks[bi].Weight * st.blockVal[bi]
	}
	return total
}

// flipObjective returns the objective of st.sel with index a flipped,
// touching only the blocks in incidence[a]. ok is false when some
// affected block becomes unevaluable or exceeds its cost cap (blocks
// not referencing a cannot change, so they need no re-check). The
// state is left unmodified.
func (s *solver) flipObjective(st *incState, a int) (float64, bool) {
	was := st.sel[a]
	st.sel[a] = !was
	defer func() { st.sel[a] = was }()

	total := st.total
	if was {
		total -= s.m.FixedCost[a]
	} else {
		total += s.m.FixedCost[a]
	}
	for _, e := range s.incidence[a] {
		bi := int(e.block)
		v, ok := s.m.blockPrimal(bi, st.sel, &s.scratches[0])
		if !ok {
			return 0, false
		}
		if cap := s.m.Blocks[bi].CostCap; cap > 0 && v > cap*(1+1e-9) {
			return 0, false
		}
		total += s.m.Blocks[bi].Weight * (v - st.blockVal[bi])
	}
	return total, true
}

// commitFlip applies the flip of index a to the state: the affected
// block values are refreshed, the total is re-summed in full order,
// discarding any floating-point drift the delta arithmetic of
// flipObjective may carry, and the memoised flip outcomes, which were
// against the old selection, are forgotten. Call only after
// flipObjective reported ok.
func (s *solver) commitFlip(st *incState, a int) {
	st.sel[a] = !st.sel[a]
	for _, e := range s.incidence[a] {
		v, _ := s.m.blockPrimal(int(e.block), st.sel, &s.scratches[0])
		st.blockVal[e.block] = v
	}
	st.total = s.totalOf(st)
	clear(st.flip)
}
