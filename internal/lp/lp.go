// Package lp implements a bounded-variable two-phase simplex solver for
// linear programs. It is the linear-optimization substrate beneath the
// generic BIP solver (package bip) and the Lagrangian engine (package
// lagrange) — together they replace the off-the-shelf CPLEX solver of
// the paper's evaluation.
//
// The LPs it serves are small in one dimension: the feasibility screen
// of Figure 3 line 1 and the relaxed z polytope of relax(B) have one
// column per candidate index but one row per side constraint plus the
// budget — a handful. The solver is therefore a dense tableau kept in
// eliminated form: a pivot costs O(m·n), which at m in the tens is
// cheaper than any factorization would be to maintain, and the reduced
// costs and basic values are updated per pivot in O(n) and O(m) rather
// than recomputed.
package lp

import (
	"fmt"
	"math"
	"time"
)

// Sense is the comparison sense of a linear constraint.
type Sense int

const (
	// LE is Σ aᵢxᵢ ≤ b.
	LE Sense = iota
	// GE is Σ aᵢxᵢ ≥ b.
	GE
	// EQ is Σ aᵢxᵢ = b.
	EQ
)

// String returns the operator symbol.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Coef is one nonzero coefficient of a constraint row.
type Coef struct {
	Col int
	Val float64
}

type row struct {
	coefs []Coef
	sense Sense
	rhs   float64
}

// Problem is a linear program: minimize Obj·x subject to rows and
// variable bounds. Rows are stored sparse, in the caller's units; the
// solver scales its own copy (see newTableau).
type Problem struct {
	cols int
	obj  []float64
	lo   []float64
	hi   []float64
	rows []row
}

// NewProblem returns a problem with the given number of structural
// variables, all bounded to [0, +∞) with zero objective.
func NewProblem(cols int) *Problem {
	p := &Problem{
		cols: cols,
		obj:  make([]float64, cols),
		lo:   make([]float64, cols),
		hi:   make([]float64, cols),
	}
	for j := range p.hi {
		p.hi[j] = math.Inf(1)
	}
	return p
}

// Cols returns the number of structural variables.
func (p *Problem) Cols() int { return p.cols }

// Rows returns the number of constraints.
func (p *Problem) Rows() int { return len(p.rows) }

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c float64) { p.obj[j] = c }

// SetBounds sets the bounds of variable j. Use math.Inf for open ends.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	p.lo[j] = lo
	p.hi[j] = hi
}

// AddRow appends the constraint Σ coefs ⋈ rhs and returns its index.
// Coefficients with duplicate columns are summed.
func (p *Problem) AddRow(coefs []Coef, sense Sense, rhs float64) int {
	for _, c := range coefs {
		if c.Col < 0 || c.Col >= p.cols {
			panic(fmt.Sprintf("lp: column %d out of range", c.Col))
		}
	}
	p.rows = append(p.rows, row{coefs: append([]Coef(nil), coefs...), sense: sense, rhs: rhs})
	return len(p.rows) - 1
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return "unknown"
	}
}

// Solution is the result of solving a problem.
type Solution struct {
	Status Status
	// X holds the structural variable values (valid when Status is
	// Optimal or IterLimit).
	X []float64
	// Obj is the objective value of X.
	Obj float64
	// Iters is the number of simplex pivots and bound flips performed.
	Iters int
	// Basis snapshots the final simplex basis; feed it to SolveFrom on
	// a structurally identical problem (same rows and columns, bounds
	// and objective free to differ) to warm-start the next solve.
	Basis *Basis
	// Phase1Dur / Phase2Dur are the wall time spent in each simplex
	// phase. They feed the lp.phase1 / lp.phase2 spans of the daemon's
	// request traces.
	Phase1Dur time.Duration
	Phase2Dur time.Duration
}

// Basis is a reusable simplex starting point: the basic column of each
// row plus the bound each nonbasic column rests at. Branch-and-bound
// child nodes differ from their parent by one variable bound, and the
// Lagrangian z subproblem changes only its objective between
// iterations, so re-solves that start from the parent basis pivot from
// a near-optimal point instead of running Phase 1 from scratch.
type Basis struct {
	cols []int  // basic column per row (structural/slack; -1 = row's own slack)
	atHi []bool // nonbasic-at-upper flag per structural/slack column
}

const (
	eps      = 1e-9
	pivotEps = 1e-7
	// refreshEvery bounds the per-pivot updates of the reduced costs and
	// basic values between recomputations from the tableau.
	refreshEvery = 64
)

// Solve optimizes the problem with the bounded-variable two-phase
// simplex method.
func Solve(p *Problem) Solution {
	return SolveFrom(p, nil)
}

// SolveFrom is Solve starting from a warm basis (nil = cold start).
func SolveFrom(p *Problem, warm *Basis) Solution {
	return solve(p, defaultIterBudget(p), warm)
}

// SolveWithLimit is Solve with an explicit iteration budget, applied
// to each simplex phase.
func SolveWithLimit(p *Problem, maxIters int) Solution {
	return solve(p, maxIters, nil)
}

func defaultIterBudget(p *Problem) int {
	return 20000 + 50*(p.cols+len(p.rows))
}

func solve(p *Problem, maxIters int, warm *Basis) Solution {
	t := newTableau(p)
	t.install(warm)
	t1 := time.Now()
	st, iters1 := t.phase1(maxIters)
	p1 := time.Since(t1)
	if st != Optimal {
		return Solution{Status: st, Iters: iters1, Phase1Dur: p1}
	}
	t2 := time.Now()
	st, iters2 := t.phase2(maxIters)
	p2 := time.Since(t2)
	x := t.extract()
	return Solution{Status: st, X: x, Obj: p.Objective(x), Iters: iters1 + iters2, Basis: t.captureBasis(), Phase1Dur: p1, Phase2Dur: p2}
}

// tableau is the dense simplex working state. Columns are structural
// variables, then one slack per row, then artificials as needed.
type tableau struct {
	p     *Problem
	m     int // rows
	n     int // structural + slack columns
	nArt  int
	a     [][]float64 // m × (n + nArt), kept eliminated: B⁻¹A
	b     []float64   // B⁻¹b
	lo    []float64   // per column
	hi    []float64
	basis []int     // basic column per row
	pos   []int     // per column: its row while basic, −1 while nonbasic
	atHi  []bool    // nonbasic-at-upper flag per column
	x     []float64 // per column: its bound while nonbasic, its value while basic
	d     []float64 // per column: reduced cost under the objective being iterated
}

// newTableau lays the problem out densely with each row equilibrated:
// its coefficients and right-hand side are divided by the row's largest
// coefficient magnitude. The polytope is unchanged, but a budget row in
// bytes beside unit-count rows no longer leaves eliminated entries
// around 1/size — below pivotEps, where the ratio test skips them and
// reports a box-bounded polytope Unbounded.
func newTableau(p *Problem) *tableau {
	m := len(p.rows)
	n := p.cols + m // one slack per row
	t := &tableau{
		p: p, m: m, n: n,
		lo:    make([]float64, n),
		hi:    make([]float64, n),
		a:     make([][]float64, m),
		b:     make([]float64, m),
		basis: make([]int, m),
		pos:   make([]int, n),
		atHi:  make([]bool, n),
		x:     make([]float64, n),
		d:     make([]float64, n),
	}
	copy(t.lo, p.lo)
	copy(t.hi, p.hi)
	for i, r := range p.rows {
		j := p.cols + i
		switch r.sense {
		case LE:
			t.lo[j], t.hi[j] = 0, math.Inf(1)
		case GE:
			t.lo[j], t.hi[j] = math.Inf(-1), 0
		case EQ:
			t.lo[j], t.hi[j] = 0, 0
		}
		row := make([]float64, n)
		for _, c := range r.coefs {
			row[c.Col] += c.Val
		}
		scale := 0.0
		for _, v := range row[:p.cols] {
			scale = math.Max(scale, math.Abs(v))
		}
		t.b[i] = r.rhs
		if scale > 0 {
			for k := range row[:p.cols] {
				row[k] /= scale
			}
			t.b[i] /= scale
		}
		row[j] = 1
		t.a[i] = row
	}

	// Start nonbasic structural variables at their finite bound nearest
	// zero; slacks form the initial basis.
	for j := 0; j < p.cols; j++ {
		t.pos[j] = -1
		switch {
		case !math.IsInf(t.lo[j], 0) && (t.lo[j] >= 0 || math.IsInf(t.hi[j], 0)):
			t.x[j] = t.lo[j]
		case !math.IsInf(t.hi[j], 0):
			t.x[j] = t.hi[j]
			t.atHi[j] = true
		}
	}
	for i := 0; i < m; i++ {
		t.basis[i] = p.cols + i
		t.pos[p.cols+i] = i
	}
	return t
}

// install re-establishes a previous solve's basis on a fresh tableau:
// nonbasic columns move to their recorded bounds and each row is
// pivoted onto its recorded basic column (falling back to the row's
// slack when the recorded column has gone degenerate or is already
// basic elsewhere). Phase 1 then starts from the warm point and
// typically finds nothing to repair.
func (t *tableau) install(warm *Basis) {
	if warm == nil || len(warm.cols) != t.m || len(warm.atHi) != t.n {
		return
	}
	copy(t.atHi, warm.atHi)
	for j := 0; j < t.n; j++ {
		switch {
		case t.atHi[j] && !math.IsInf(t.hi[j], 0):
			t.x[j] = t.hi[j]
		case !math.IsInf(t.lo[j], 0):
			t.x[j] = t.lo[j]
			t.atHi[j] = false
		case !math.IsInf(t.hi[j], 0):
			t.x[j] = t.hi[j]
			t.atHi[j] = true
		default:
			t.x[j] = 0
			t.atHi[j] = false
		}
	}
	for i := 0; i < t.m; i++ {
		col := warm.cols[i]
		if col < 0 || col >= t.n {
			col = t.p.cols + i // row's own slack
		}
		if t.basis[i] == col {
			continue
		}
		if math.Abs(t.a[i][col]) < pivotEps {
			col = t.p.cols + i
			if t.basis[i] == col || math.Abs(t.a[i][col]) < pivotEps {
				continue
			}
		}
		t.pivot(i, col)
		t.pos[t.basis[i]] = -1
		t.basis[i] = col
		t.pos[col] = i
	}
}

// captureBasis snapshots the tableau's final basis. Artificial columns
// (possible only after a degenerate Phase 1) map to the row's slack,
// and the at-upper flags of basic columns — meaningless while basic —
// are normalized to false so a later install cannot inherit a stale
// bound side.
func (t *tableau) captureBasis() *Basis {
	b := &Basis{cols: make([]int, t.m), atHi: make([]bool, t.n)}
	copy(b.atHi, t.atHi[:t.n])
	for i, j := range t.basis {
		if j >= t.n {
			b.cols[i] = -1
		} else {
			b.cols[i] = j
			b.atHi[j] = false
		}
	}
	return b
}

// computeBasics sets each basic variable to the value the nonbasic
// columns' resting points imply: x_B = B⁻¹b − Σ_nonbasic B⁻¹A_j·x_j.
func (t *tableau) computeBasics() {
	for i, row := range t.a {
		v := t.b[i]
		for j, xj := range t.x {
			if xj != 0 && t.pos[j] < 0 {
				v -= row[j] * xj
			}
		}
		t.x[t.basis[i]] = v
	}
}

// refresh recomputes the basic values and the reduced costs
// d_j = c_j − Σ_i c_{basis[i]}·a[i][j] from the tableau, discarding
// the drift the per-pivot updates accumulate.
func (t *tableau) refresh(obj []float64) {
	t.computeBasics()
	copy(t.d, obj)
	for i, row := range t.a {
		if cb := obj[t.basis[i]]; cb != 0 {
			for j, v := range row {
				t.d[j] -= cb * v
			}
		}
	}
}

// phase1 establishes a feasible basis by adding artificial variables
// for rows whose basic variable violates its bounds, then minimizing
// their sum.
func (t *tableau) phase1(maxIters int) (Status, int) {
	for j := 0; j < t.p.cols; j++ {
		if t.lo[j] > t.hi[j] {
			return Infeasible, 0 // an empty box admits no point
		}
	}
	t.computeBasics()
	var artRows []int
	for i, j := range t.basis {
		if t.x[j] < t.lo[j]-eps || t.x[j] > t.hi[j]+eps {
			artRows = append(artRows, i)
		}
	}
	if len(artRows) == 0 {
		return Optimal, 0
	}

	// Extend the tableau with one artificial per violating row.
	t.nArt = len(artRows)
	for i := 0; i < t.m; i++ {
		t.a[i] = append(t.a[i], make([]float64, t.nArt)...)
	}
	t.lo = append(t.lo, make([]float64, t.nArt)...)
	t.hi = append(t.hi, make([]float64, t.nArt)...)
	t.x = append(t.x, make([]float64, t.nArt)...)
	t.atHi = append(t.atHi, make([]bool, t.nArt)...)
	t.d = append(t.d, make([]float64, t.nArt)...)
	for k := 0; k < t.nArt; k++ {
		t.pos = append(t.pos, -1)
	}

	obj := make([]float64, t.n+t.nArt)
	for k, i := range artRows {
		j := t.n + k
		old := t.basis[i]
		// Pin the old basic variable at the bound it violated toward,
		// and make the artificial absorb the residual with the right
		// sign.
		resid := t.x[old]
		if resid < t.lo[old] {
			t.x[old], t.atHi[old] = t.lo[old], false
		} else {
			t.x[old], t.atHi[old] = t.hi[old], true
		}
		resid -= t.x[old]
		if resid < 0 {
			// Normalize the row so the artificial enters with +1,
			// preserving the eliminated-form invariant of the basis.
			for col := range t.a[i] {
				t.a[i][col] = -t.a[i][col]
			}
			t.b[i] = -t.b[i]
			resid = -resid
		}
		t.a[i][j] = 1
		t.lo[j], t.hi[j] = 0, math.Inf(1)
		t.pos[old] = -1
		t.basis[i] = j
		t.pos[j] = i
		t.x[j] = resid
		obj[j] = 1
	}

	st, iters := t.iterate(obj, maxIters)
	if st == Unbounded {
		// A minimization of nonnegative artificials cannot be
		// unbounded; treat as numeric failure.
		return Infeasible, iters
	}
	if st == IterLimit {
		return IterLimit, iters
	}
	for k := 0; k < t.nArt; k++ {
		if t.x[t.n+k] > 1e-6 {
			return Infeasible, iters
		}
	}
	// Freeze artificials at zero so phase 2 cannot reuse them.
	for k := 0; k < t.nArt; k++ {
		j := t.n + k
		t.lo[j], t.hi[j] = 0, 0
	}
	return Optimal, iters
}

func (t *tableau) phase2(maxIters int) (Status, int) {
	obj := make([]float64, t.n+t.nArt)
	copy(obj, t.p.obj)
	return t.iterate(obj, maxIters)
}

// iterate runs primal simplex iterations until optimality for the
// given objective. Reduced costs and basic values are updated after
// every pivot and bound flip, recomputed every refreshEvery updates,
// and recomputed again before optimality is declared.
func (t *tableau) iterate(obj []float64, maxIters int) (Status, int) {
	t.refresh(obj)
	updates := 0
	iters := 0
	for iters < maxIters {
		if updates == refreshEvery {
			t.refresh(obj)
			updates = 0
		}
		enter, dir := t.price(iters > maxIters/2)
		if enter == -1 {
			if updates == 0 {
				return Optimal, iters
			}
			t.refresh(obj)
			updates = 0
			continue
		}
		iters++

		// Ratio test: how far can the entering variable move?
		limit := math.Inf(1)
		if !math.IsInf(t.hi[enter], 0) && !math.IsInf(t.lo[enter], 0) {
			limit = t.hi[enter] - t.lo[enter] // bound flip distance
		}
		leave := -1
		leaveToHi := false
		for i := 0; i < t.m; i++ {
			coef := t.a[i][enter] * dir
			if math.Abs(coef) < pivotEps {
				continue
			}
			bj := t.basis[i]
			if coef > 0 {
				// Basic variable decreases toward its lower bound.
				if math.IsInf(t.lo[bj], 0) {
					continue
				}
				if room := (t.x[bj] - t.lo[bj]) / coef; room < limit-eps {
					limit, leave, leaveToHi = room, i, false
				}
			} else {
				// Basic variable increases toward its upper bound.
				if math.IsInf(t.hi[bj], 0) {
					continue
				}
				if room := (t.x[bj] - t.hi[bj]) / coef; room < limit-eps {
					limit, leave, leaveToHi = room, i, true
				}
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded, iters
		}
		if limit < 0 {
			limit = 0
		}

		// The basic variables move along the entering column.
		delta := dir * limit
		for i := 0; i < t.m; i++ {
			if c := t.a[i][enter]; c != 0 {
				t.x[t.basis[i]] -= c * delta
			}
		}
		updates++

		if leave == -1 {
			// Bound flip: the entering variable moves to its other
			// bound; the basis (and so every reduced cost) is unchanged.
			t.atHi[enter] = !t.atHi[enter]
			if t.atHi[enter] {
				t.x[enter] = t.hi[enter]
			} else {
				t.x[enter] = t.lo[enter]
			}
			continue
		}

		// Pivot: the entering variable becomes basic at row `leave`.
		// Reduced costs follow d ← d − d_e·(row_leave / pivot).
		row := t.a[leave]
		de := t.d[enter] / row[enter]
		for j, v := range row {
			if v != 0 {
				t.d[j] -= de * v
			}
		}
		t.d[enter] = 0
		out := t.basis[leave]
		enterVal := t.x[enter] + delta
		t.pivot(leave, enter)
		t.basis[leave] = enter
		t.pos[enter] = leave
		t.pos[out] = -1
		t.x[enter] = enterVal
		t.atHi[out] = leaveToHi
		if leaveToHi {
			t.x[out] = t.hi[out]
		} else {
			t.x[out] = t.lo[out]
		}
	}
	return IterLimit, iters
}

// price picks the entering column and its direction (+1 up from the
// lower bound, −1 down from the upper): the most attractive reduced
// cost (Dantzig), or under bland the lowest eligible index, which
// cannot cycle.
func (t *tableau) price(bland bool) (int, float64) {
	enter, enterDir := -1, 0.0
	bestScore := eps
	for j, d := range t.d {
		if t.pos[j] >= 0 || t.lo[j] == t.hi[j] {
			continue
		}
		var score, dir float64
		switch {
		case !t.atHi[j] && d < -eps:
			score, dir = -d, 1 // increase from the lower bound
		case t.atHi[j] && d > eps:
			score, dir = d, -1 // decrease from the upper bound
		case math.IsInf(t.lo[j], 0) && math.IsInf(t.hi[j], 0) && d > eps:
			score, dir = d, -1 // free variable moving negative
		default:
			continue
		}
		if bland {
			return j, dir
		}
		if score > bestScore {
			bestScore, enter, enterDir = score, j, dir
		}
	}
	return enter, enterDir
}

// pivot eliminates column `col` from all rows except `prow`, scaling
// the pivot row to make the pivot 1, and updates the eliminated rhs.
func (t *tableau) pivot(prow, col int) {
	inv := 1 / t.a[prow][col]
	rowP := t.a[prow]
	for j := range rowP {
		rowP[j] *= inv
	}
	t.b[prow] *= inv
	for i := 0; i < t.m; i++ {
		if i == prow {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		rowI := t.a[i]
		for j, v := range rowP {
			rowI[j] -= f * v
		}
		t.b[i] -= f * t.b[prow]
	}
}

// extract returns the structural variable values, with the basic ones
// recomputed from the tableau.
func (t *tableau) extract() []float64 {
	t.computeBasics()
	return append([]float64(nil), t.x[:t.p.cols]...)
}
