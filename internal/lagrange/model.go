// Package lagrange implements a Lagrangian-relaxation solver for the
// structured binary programs that index tuning produces: per-query
// choice blocks (pick one template, fill its slots with index options)
// linked to per-index selection variables z_a, plus a storage-budget
// knapsack and arbitrary linear side constraints over z.
//
// Both CoPhy's compact BIP (Theorem 1) and the ILP baseline's
// per-configuration BIP compile into this model. The solver relaxes
// the linking constraints x ≤ z into the objective — the very
// transformation the paper's Solver applies in its relax(B) step
// (Figure 3, line 3) — and runs subgradient ascent to obtain lower
// bounds, greedy/local-search rounding to obtain incumbents, and an
// optional branch-and-bound layer to close the remaining gap. It
// reports continuous (lower, upper) bound feedback over time, accepts
// MIP starts and dual warm starts, which is exactly the off-the-shelf
// solver feature set CoPhy's early termination and interactive
// re-tuning build on (§4.2).
package lagrange

import (
	"context"
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/obs"
)

// NoIndex marks an option that uses no index (the I∅ access method).
const NoIndex = int32(-1)

// Option is one way to fill a slot: use index Index (or none) at the
// given access cost — a (a, γ) pair of the paper's BIP.
type Option struct {
	// Index is the candidate index, or NoIndex for I∅.
	Index int32
	// Cost is the access cost γ.
	Cost float64
}

// Slot is the set of feasible options for one access-method hole.
// Options with infinite γ are simply omitted.
type Slot []Option

// Choice is one template plan: a fixed internal cost β plus its slots.
// The slots of a template are distinct tables (Theorem 1), so an index
// may appear in at most one slot of a choice; Validate enforces it.
// For the ILP baseline a choice is one atomic configuration: Fixed is
// the full plan cost and each required index contributes a zero-cost
// single-option slot (using the choice forces paying for the index).
type Choice struct {
	// Fixed is the cost paid when this choice is selected (β).
	Fixed float64
	// Slots are the access-method holes to fill.
	Slots []Slot
}

// Block is the per-statement component of the objective: the weighted
// minimum over its choices. Every block must retain at least one
// choice whose slots all admit the NoIndex option (or have zero
// slots), so the empty configuration stays feasible.
type Block struct {
	// ID labels the block with a stable statement identity. A dual warm
	// start (Options.Warm) follows a statement across workload deltas by
	// it: a later solve finds the donor block by ID, so appending,
	// dropping or re-weighting statements does not forfeit the warm
	// start. A block without a label starts from neutral prices.
	ID string
	// Weight is the statement weight f_q.
	Weight float64
	// Choices are the mutually exclusive evaluation strategies.
	Choices []Choice
	// CostCap, when positive, is a per-statement cost constraint
	// (Appendix E.2: ASSERT cost(q,X*) ≤ V): a selection under which
	// the block's best choice exceeds the cap is infeasible.
	CostCap float64
}

// Term is one coefficient of a side constraint over the z variables.
type Term struct {
	Index int32
	Coef  float64
}

// Constraint is a linear side constraint Σ Coef·z ⋈ RHS, compiled from
// the DBA's constraint language (Appendix E).
type Constraint struct {
	Terms []Term
	Sense lp.Sense
	RHS   float64
	// Name labels the constraint in infeasibility reports.
	Name string
}

// Model is the structured BIP.
type Model struct {
	// NumIndexes is the candidate count; z variables are indexed
	// 0..NumIndexes-1.
	NumIndexes int
	// FixedCost[a] is the objective coefficient of z_a: the weighted
	// update-maintenance cost Σ f_q·ucost(a,q), plus any soft-
	// constraint penalty terms.
	FixedCost []float64
	// Size[a] is the storage size of index a (bytes).
	Size []float64
	// Budget is the storage budget in bytes; Budget < 0 disables it.
	Budget float64
	// Extra holds side constraints over z.
	Extra []Constraint
	// Blocks holds the per-statement choice structures.
	Blocks []Block
	// Const is a constant objective offset (e.g. base-tuple update
	// costs Σ f_q·c_q, or −λM terms from scalarized soft constraints).
	Const float64
}

// NewModel returns an empty model for n candidate indexes.
func NewModel(n int) *Model {
	return &Model{
		NumIndexes: n,
		FixedCost:  make([]float64, n),
		Size:       make([]float64, n),
		Budget:     -1,
	}
}

// Validate checks structural invariants; it returns an error naming
// the first violation.
func (m *Model) Validate() error {
	if len(m.FixedCost) != m.NumIndexes || len(m.Size) != m.NumIndexes {
		return fmt.Errorf("lagrange: cost/size arrays must have %d entries", m.NumIndexes)
	}
	// slotOf[a] is the serial number of the last slot that offered
	// index a; slots are numbered from 1 across the whole model, so one
	// array tells "used by an earlier slot of this choice" for every
	// choice.
	slotOf := make([]int, m.NumIndexes)
	serial := 0
	for bi := range m.Blocks {
		b := &m.Blocks[bi]
		if len(b.Choices) == 0 {
			return fmt.Errorf("lagrange: block %d has no choices", bi)
		}
		hasFallback := false
		for ci := range b.Choices {
			first := serial + 1
			ok := true
			for _, s := range b.Choices[ci].Slots {
				if len(s) == 0 {
					return fmt.Errorf("lagrange: block %d choice %d has an empty slot", bi, ci)
				}
				serial++
				slotHasEmpty := false
				for _, o := range s {
					if o.Index == NoIndex {
						slotHasEmpty = true
						continue
					}
					if o.Index < 0 || int(o.Index) >= m.NumIndexes {
						return fmt.Errorf("lagrange: block %d choice %d references index %d out of range", bi, ci, o.Index)
					}
					if at := slotOf[o.Index]; at >= first && at != serial {
						return fmt.Errorf("lagrange: block %d choice %d repeats index %d across slots", bi, ci, o.Index)
					}
					slotOf[o.Index] = serial
				}
				if !slotHasEmpty {
					ok = false
				}
			}
			if ok {
				hasFallback = true
			}
		}
		if !hasFallback {
			return fmt.Errorf("lagrange: block %d has no choice evaluable without indexes", bi)
		}
	}
	for _, c := range m.Extra {
		for _, t := range c.Terms {
			if t.Index < 0 || int(t.Index) >= m.NumIndexes {
				return fmt.Errorf("lagrange: constraint %q references index %d out of range", c.Name, t.Index)
			}
		}
	}
	return nil
}

// zPolytopeLP builds the small LP over the z variables only: bounds
// [0,1], the budget row and the side constraints, with the given
// objective coefficients. fixedIn/fixedOut pin variables. Rows stay in
// the model's units (bytes beside counts); the LP solver equilibrates
// its own copy. The polytope itself never changes between subgradient
// iterations (only the objective and, under branching, bounds move),
// so callers build it once and retune it with retuneZPolytope.
func (m *Model) zPolytopeLP(obj []float64, fixedIn, fixedOut []bool) *lp.Problem {
	p := lp.NewProblem(m.NumIndexes)
	m.retuneZPolytope(p, obj, fixedIn, fixedOut)
	if m.Budget >= 0 {
		coefs := make([]lp.Coef, 0, m.NumIndexes)
		for a := 0; a < m.NumIndexes; a++ {
			if m.Size[a] != 0 {
				coefs = append(coefs, lp.Coef{Col: a, Val: m.Size[a]})
			}
		}
		p.AddRow(coefs, lp.LE, m.Budget)
	}
	for _, c := range m.Extra {
		coefs := make([]lp.Coef, 0, len(c.Terms))
		for _, t := range c.Terms {
			coefs = append(coefs, lp.Coef{Col: int(t.Index), Val: t.Coef})
		}
		p.AddRow(coefs, c.Sense, c.RHS)
	}
	return p
}

// retuneZPolytope repoints an already-built z-polytope LP at a new
// objective and new fixings without touching its constraint matrix —
// the per-iteration delta of the subgradient loop.
func (m *Model) retuneZPolytope(p *lp.Problem, obj []float64, fixedIn, fixedOut []bool) {
	for a := 0; a < m.NumIndexes; a++ {
		p.SetObj(a, obj[a])
		lo, hi := 0.0, 1.0
		if fixedIn != nil && fixedIn[a] {
			lo = 1
		}
		if fixedOut != nil && fixedOut[a] {
			hi = 0
		}
		if lo > hi {
			// Contradictory fixings; make infeasible explicitly.
			lo, hi = 1, 0
		}
		p.SetBounds(a, lo, hi)
	}
}

// CheckFeasible reports whether any selection satisfies the budget and
// the side constraints — the fast infeasibility screen of Figure 3
// line 1. It solves the LP relaxation and, if fractional feasible,
// verifies that an integral point exists by rounding-and-repair over
// the small z polytope (for the common constraint shapes the LP is
// integral already; the fallback uses the generic BIP solver).
func (m *Model) CheckFeasible() (bool, error) {
	return m.CheckFeasibleCtx(context.Background())
}

// CheckFeasibleCtx is CheckFeasible with a context: cancellation stops
// the fallback BIP search at a node boundary, and a request trace
// riding in the context (obs.TraceFrom) receives the LP phase timings
// of the screen.
func (m *Model) CheckFeasibleCtx(ctx context.Context) (bool, error) {
	tr := obs.TraceFrom(ctx)
	obj := make([]float64, m.NumIndexes)
	p := m.zPolytopeLP(obj, nil, nil)
	s := lp.Solve(p)
	tr.Add("lp.phase1", s.Phase1Dur)
	tr.Add("lp.phase2", s.Phase2Dur)
	if s.Status == lp.Infeasible {
		return false, nil
	}
	// The all-zero selection satisfies any ≤ budget and most practical
	// constraints; test it first.
	zero := make([]float64, m.NumIndexes)
	if p.Feasible(zero, 1e-9) {
		return true, nil
	}
	// Otherwise fall back to an exact check over the (small) z BIP.
	bins := make([]int, m.NumIndexes)
	for a := range bins {
		bins[a] = a
	}
	return checkBinaryFeasible(ctx, p, bins), nil
}

// IdentifyInfeasible returns the names of side constraints whose
// removal restores feasibility — the report CoPhy hands the DBA when
// the feasibility screen fails, so she can drop or soften the
// offending constraints (Figure 3, line 2).
func (m *Model) IdentifyInfeasible() []string {
	if ok, _ := m.CheckFeasible(); ok {
		return nil
	}
	var culprits []string
	all := m.Extra
	for drop := range all {
		m.Extra = append(append([]Constraint(nil), all[:drop]...), all[drop+1:]...)
		if ok, _ := m.CheckFeasible(); ok {
			name := all[drop].Name
			if name == "" {
				name = "side-constraint"
			}
			culprits = append(culprits, name)
		}
	}
	m.Extra = all
	if len(culprits) == 0 {
		// No single constraint explains it; report all of them.
		for _, c := range all {
			name := c.Name
			if name == "" {
				name = "side-constraint"
			}
			culprits = append(culprits, name)
		}
		if m.Budget >= 0 {
			culprits = append(culprits, "storage-budget")
		}
	}
	return culprits
}

// SelectionFeasible reports whether a concrete selection satisfies the
// budget and side constraints, returning the first violated constraint
// name.
func (m *Model) SelectionFeasible(selected []bool) (bool, string) {
	if m.Budget >= 0 {
		var used float64
		for a, sel := range selected {
			if sel {
				used += m.Size[a]
			}
		}
		if used > m.Budget*(1+1e-12) {
			return false, "storage-budget"
		}
	}
	for _, c := range m.Extra {
		var act float64
		for _, t := range c.Terms {
			if selected[t.Index] {
				act += t.Coef
			}
		}
		viol := false
		switch c.Sense {
		case lp.LE:
			viol = act > c.RHS+1e-9
		case lp.GE:
			viol = act < c.RHS-1e-9
		case lp.EQ:
			viol = math.Abs(act-c.RHS) > 1e-9
		}
		if viol {
			name := c.Name
			if name == "" {
				name = "side-constraint"
			}
			return false, name
		}
	}
	return true, ""
}

// Evaluate returns the true objective of a selection: Σ_b w_b·(best
// choice cost under the selection) + Σ_a FixedCost[a] + Const. The
// second return is false if some block has no evaluable choice (cannot
// happen for validated models) or exceeds its cost cap. The solver
// prices every candidate incumbent with it, and its one-flip trials
// with the same blockPrimal.
func (m *Model) Evaluate(selected []bool) (float64, bool) {
	total := m.Const
	for a, sel := range selected {
		if sel {
			total += m.FixedCost[a]
		}
	}
	for bi := range m.Blocks {
		v, ok := m.blockPrimal(bi, selected)
		if !ok {
			return 0, false
		}
		if cap := m.Blocks[bi].CostCap; cap > 0 && v > cap*(1+1e-9) {
			return 0, false // per-statement cost constraint violated
		}
		total += m.Blocks[bi].Weight * v
	}
	return total, true
}

// blockPrimal returns the minimum choice cost of block bi when only
// the selected indexes are available.
func (m *Model) blockPrimal(bi int, selected []bool) (float64, bool) {
	b := &m.Blocks[bi]
	best := math.Inf(1)
	for ci := range b.Choices {
		c := &b.Choices[ci]
		v := c.Fixed
		ok := true
		for _, s := range c.Slots {
			slotBest := math.Inf(1)
			for _, o := range s {
				if o.Index != NoIndex && !selected[o.Index] {
					continue
				}
				if o.Cost < slotBest {
					slotBest = o.Cost
				}
			}
			if math.IsInf(slotBest, 1) {
				ok = false
				break
			}
			v += slotBest
		}
		if ok && v < best {
			best = v
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}
