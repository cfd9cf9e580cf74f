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
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/par"
)

// NoIndex marks an option that uses no index (the I∅ access method).
const NoIndex = int32(-1)

// Option is one way to fill a slot: use index Index (or none) at the
// given access cost — a (a, γ) pair of the paper's BIP.
type Option struct {
	// Index is the candidate index, or NoIndex for I∅.
	Index int32
	// Group is the option's multiplier group in its block's layout, or
	// −1 for I∅. NewLayout writes it.
	Group int32
	// Cost is the access cost γ.
	Cost float64
}

// Slot is the set of feasible options for one access-method hole.
// Options with infinite γ are simply omitted. NewLayout puts the
// options in ascending (Cost, Index) order, so both block kernels can
// stop a slot's walk early: blockPrimal at the first available option,
// blockDual at the first option whose γ alone exceeds the slot's best
// value (every multiplier is ≥ 0). NoIndex sorts below every index, so
// the (value, index) tie-break of both kernels prefers I∅.
type Slot []Option

// sort puts the slot's options in ascending (Cost, Index) order.
func (s Slot) sort() { slices.SortFunc(s, cmpOption) }

// cmpOption orders options by (Cost, Index). Costs are never NaN
// (NewLayout rejects them), so plain comparisons order them.
func cmpOption(x, y Option) int {
	switch {
	case x.Cost < y.Cost:
		return -1
	case x.Cost > y.Cost:
		return 1
	}
	return cmp.Compare(x.Index, y.Index)
}

// Choice is one template plan: a fixed internal cost β plus its slots.
// The slots of a template are distinct tables (Theorem 1), so an index
// may appear in at most one slot of a choice; NewLayout enforces it.
// For the ILP baseline a choice is one atomic configuration: Fixed is
// the full plan cost and each required index contributes a zero-cost
// single-option slot (using the choice forces paying for the index).
type Choice struct {
	// Fixed is the cost paid when this choice is selected (β).
	Fixed float64
	// Slots are the access-method holes to fill.
	Slots []Slot
}

// Layout is a block's choices once NewLayout has checked, sorted and
// numbered them. It depends on the choices alone, so blocks with the
// same choices (statements of one shape class) share one, and so do
// the models assembled from them.
type Layout struct {
	choices []Choice
	// slots are the block's distinct slots (distinct windows), in order
	// of first use.
	slots []Slot
	// refs[ci] lists choice ci's slots as positions in slots, in the
	// choice's slot order.
	refs [][]int32
	// groupIdx[g] is the index of multiplier group g.
	groupIdx []int32
	// maxIndex is the largest index an option uses, or NoIndex.
	maxIndex int32
}

// NewLayout checks the choices, sorts each slot by (Cost, Index) and
// numbers the block's multiplier groups, in place: the layout owns the
// choices from then on, and nothing may change them.
//
// A slot passed more than once as the same window (same first option,
// same length) is one distinct slot, checked and sorted once: BIPGen
// passes every use of a slab's distinct slot as that slot's window. A
// window starting where another starts with another length is an
// error; windows must not overlap otherwise.
//
// It rejects an empty choice list, an empty slot, a NaN cost, a
// negative index other than NoIndex, an index repeated across the
// slots of one choice, and choices of which none is evaluable without
// indexes — every block must keep one, so the empty configuration
// stays feasible. An index may repeat within a slot.
//
// All use sites of an index within the block share one group, the
// (statement, index) multiplier of relax(B); slots of a choice are
// distinct tables, so an index meets a choice at most once, and
// sharing loses nothing while keeping an index useful in many
// templates from having its dual price diluted across them. Groups are
// numbered by the first slot, in (choice, slot) order, that offers the
// index, and within one slot by ascending index. The λ step sums in
// group order and the exported dual lists groups in it.
func NewLayout(choices []Choice) (*Layout, error) {
	if len(choices) == 0 {
		return nil, errors.New("lagrange: no choices")
	}
	l := &Layout{choices: choices, refs: make([][]int32, len(choices)), maxIndex: NoIndex}
	nSlots := 0
	for ci := range choices {
		nSlots += len(choices[ci].Slots)
	}
	// Find the distinct windows, checking each when it first appears.
	refs := make([]int32, 0, nSlots)
	byStart := make(map[*Option]int32, nSlots)
	var free []bool // free[d]: distinct slot d offers I∅
	fallback := false
	for ci := range choices {
		r0 := len(refs)
		allFree := true
		for _, s := range choices[ci].Slots {
			if len(s) == 0 {
				return nil, fmt.Errorf("lagrange: choice %d has an empty slot", ci)
			}
			d, ok := byStart[&s[0]]
			switch {
			case !ok:
				slotFree, err := l.check(ci, s)
				if err != nil {
					return nil, err
				}
				d = int32(len(l.slots))
				byStart[&s[0]] = d
				free = append(free, slotFree)
				l.slots = append(l.slots, s)
			case len(l.slots[d]) != len(s):
				return nil, fmt.Errorf("lagrange: choice %d has a slot overlapping another", ci)
			}
			refs = append(refs, d)
			allFree = allFree && free[d]
		}
		l.refs[ci] = refs[r0:len(refs):len(refs)]
		fallback = fallback || allFree
	}
	if !fallback {
		return nil, errors.New("lagrange: no choice is evaluable without indexes")
	}
	for _, s := range l.slots {
		s.sort()
	}
	// slotOf[a] is the serial number (from 1) of the last slot that
	// offered index a, group[a] a's group; fresh collects the indexes a
	// slot offers first. A distinct slot is numbered where it first
	// appears; a later use offers only indexes it offered, but is still
	// checked against the other slots of its choice.
	slotOf := make([]int32, l.maxIndex+1)
	group := make([]int32, l.maxIndex+1)
	var fresh []int32
	serial, numbered := int32(0), int32(0)
	for ci := range choices {
		first := serial + 1
		for _, d := range l.refs[ci] {
			s := l.slots[d]
			serial++
			fresh = fresh[:0]
			for _, o := range s {
				if o.Index == NoIndex {
					continue
				}
				switch at := slotOf[o.Index]; {
				case at == 0:
					fresh = append(fresh, o.Index)
				case at >= first && at != serial:
					return nil, fmt.Errorf("lagrange: choice %d repeats index %d across slots", ci, o.Index)
				}
				slotOf[o.Index] = serial
			}
			if d != numbered {
				continue
			}
			numbered++
			slices.Sort(fresh)
			for _, a := range fresh {
				group[a] = int32(len(l.groupIdx))
				l.groupIdx = append(l.groupIdx, a)
			}
			for i := range s {
				if a := s[i].Index; a == NoIndex {
					s[i].Group = -1
				} else {
					s[i].Group = group[a]
				}
			}
		}
	}
	return l, nil
}

// bestChoice returns the least choice cost given val[d], the value of
// distinct slot d (+Inf when nothing can fill it), and the choice that
// attains it, or −1 when no choice can be filled. A choice's cost is
// its Fixed plus its slots' values, added in slot order, which are
// the additions a walk over the choice's own slots makes; the first
// of equal costs wins.
func (l *Layout) bestChoice(val []float64) (float64, int) {
	best, win := math.Inf(1), -1
	for ci, refs := range l.refs {
		v, ok := l.choices[ci].Fixed, true
		for _, d := range refs {
			if math.IsInf(val[d], 1) {
				ok = false
				break
			}
			v += val[d]
		}
		if ok && v < best {
			best, win = v, ci
		}
	}
	return best, win
}

// check checks slot s of choice ci as NewLayout requires and raises
// maxIndex to its indexes. It reports whether s offers I∅.
func (l *Layout) check(ci int, s Slot) (bool, error) {
	free := false
	for _, o := range s {
		switch {
		case math.IsNaN(o.Cost):
			return false, fmt.Errorf("lagrange: choice %d has a NaN cost", ci)
		case o.Index == NoIndex:
			free = true
		case o.Index < 0:
			return false, fmt.Errorf("lagrange: choice %d references index %d", ci, o.Index)
		}
		l.maxIndex = max(l.maxIndex, o.Index)
	}
	return free, nil
}

// Block is the per-statement component of the objective: the weighted
// minimum over its choices, which its layout holds.
type Block struct {
	// ID labels the block with a stable statement identity. A dual warm
	// start (Options.Warm) follows a statement across workload deltas by
	// it: a later solve finds the donor block by ID, so appending,
	// dropping or re-weighting statements does not forfeit the warm
	// start. A block without a label starts from neutral prices.
	ID string
	// Weight is the statement weight f_q.
	Weight float64
	// Choices are the mutually exclusive evaluation strategies, as laid
	// out by the block's layout: SetLayout sets them, and they are read
	// only. A repeated slot is the very window of its first use.
	Choices []Choice
	// CostCap, when positive, is a per-statement cost constraint
	// (Appendix E.2: ASSERT cost(q,X*) ≤ V): a selection under which
	// the block's best choice exceeds the cap is infeasible.
	CostCap float64

	layout *Layout
}

// SetLayout gives the block the layout l and l's choices.
func (b *Block) SetLayout(l *Layout) { b.layout, b.Choices = l, l.choices }

// Layout returns the block's layout, or nil before SetLayout.
func (b *Block) Layout() *Layout { return b.layout }

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
// the first violation. The per-option checks are NewLayout's, made
// once where the layout is built: Validate checks that every block
// carries a layout and the layout's choices, that the layout's indexes
// are in range, and that the side-row terms are.
func (m *Model) Validate() error {
	if len(m.FixedCost) != m.NumIndexes || len(m.Size) != m.NumIndexes {
		return fmt.Errorf("lagrange: cost/size arrays must have %d entries", m.NumIndexes)
	}
	for bi := range m.Blocks {
		b := &m.Blocks[bi]
		switch l := b.layout; {
		case l == nil:
			return fmt.Errorf("lagrange: block %d has no layout", bi)
		case len(b.Choices) != len(l.choices) || &b.Choices[0] != &l.choices[0]:
			return fmt.Errorf("lagrange: block %d's choices are not its layout's", bi)
		case int(l.maxIndex) >= m.NumIndexes:
			return fmt.Errorf("lagrange: block %d references index %d out of range", bi, l.maxIndex)
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
// line 1. It solves the LP relaxation and, if that is feasible, tests
// the all-zero selection; only when that breaks a side constraint does
// an exact branch and bound (package bip) search the small z polytope
// for a binary point.
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
		if m.overBudget(used) {
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
		if c.violatedAt(act) {
			name := c.Name
			if name == "" {
				name = "side-constraint"
			}
			return false, name
		}
	}
	return true, ""
}

// overBudget reports whether a selection of used bytes breaks the
// storage budget.
func (m *Model) overBudget(used float64) bool {
	return m.Budget >= 0 && used > m.Budget*(1+1e-12)
}

// violatedAt reports whether the constraint is broken at activity act.
func (c *Constraint) violatedAt(act float64) bool {
	switch c.Sense {
	case lp.LE:
		return act > c.RHS+1e-9
	case lp.GE:
		return act < c.RHS-1e-9
	case lp.EQ:
		return math.Abs(act-c.RHS) > 1e-9
	}
	return false
}

// Evaluate returns the true objective of a selection: Σ_b w_b·(best
// choice cost under the selection) + Σ_a FixedCost[a] + Const. The
// second return is false if some block has no evaluable choice (cannot
// happen for validated models) or exceeds its cost cap. The solver
// prices every candidate incumbent with the same pass, and its one-flip
// trials with the same blockPrimal.
func (m *Model) Evaluate(selected []bool) (float64, bool) {
	return m.evaluate(selected, make([]blockScratch, 1), make([]float64, len(m.Blocks)))
}

// evaluate is Evaluate with the block values computed over one
// goroutine per scratch (serially below minParallelBlocks blocks, as in
// evalBlocks) and left in blockVal. The reduction is serial and in a
// fixed order — Const, fixed costs in index order, weighted block
// values in block order — so every worker count gives the same bits.
func (m *Model) evaluate(selected []bool, scratches []blockScratch, blockVal []float64) (float64, bool) {
	workers := len(scratches)
	if len(m.Blocks) < minParallelBlocks {
		workers = 1
	}
	var bad atomic.Bool
	par.ForWorker(len(m.Blocks), workers, func(worker, bi int) {
		if bad.Load() {
			return
		}
		v, ok := m.blockPrimal(bi, selected, &scratches[worker])
		if cap := m.Blocks[bi].CostCap; !ok || cap > 0 && v > cap*(1+1e-9) {
			bad.Store(true) // unevaluable, or a per-statement cost cap violated
			return
		}
		blockVal[bi] = v
	})
	if bad.Load() {
		return 0, false
	}
	total := m.Const
	for a, sel := range selected {
		if sel {
			total += m.FixedCost[a]
		}
	}
	for bi := range m.Blocks {
		total += m.Blocks[bi].Weight * blockVal[bi]
	}
	return total, true
}

// blockPrimal returns the minimum choice cost of block bi when only
// the selected indexes are available. It prices each distinct slot of
// the block's layout once, into sc: a slot is sorted, so its first
// available option is its cheapest.
func (m *Model) blockPrimal(bi int, selected []bool, sc *blockScratch) (float64, bool) {
	l := m.Blocks[bi].layout
	val, _ := sc.slotBuffers(len(l.slots))
	for d, s := range l.slots {
		val[d] = math.Inf(1)
		for _, o := range s {
			if o.Index == NoIndex || selected[o.Index] {
				val[d] = o.Cost
				break
			}
		}
	}
	best, win := l.bestChoice(val)
	if win < 0 {
		return 0, false
	}
	return best, true
}
