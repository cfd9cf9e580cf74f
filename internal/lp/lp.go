// Package lp implements a bounded-variable primal simplex solver for
// linear programs. It is the linear-optimization substrate beneath the
// generic BIP solver (package bip) and the Lagrangian engine (package
// lagrange) — together they replace the off-the-shelf CPLEX solver of
// the paper's evaluation.
//
// Two implementations share one Problem and one Basis type. The
// production path (Solve/SolveFrom/SolveWithLimit) is a revised
// simplex over the problem's sparse column-major store with an
// LU-factorized basis — Markowitz-ordered sparse LU, Forrest–Tomlin
// updates, devex pricing (see sparse.go and lu.go): per-iteration
// work scales with the factor's fill, not with m×n or pivot depth,
// which is the difference that matters for the constraint-rich BIP
// matrices index tuning produces (±1 coefficients, a handful of
// nonzeros per row).
// The original dense two-phase tableau simplex is retained verbatim as
// a reference oracle (SolveDense/SolveDenseFrom/SolveDenseWithLimit);
// property tests pin the sparse path's status and objective against it
// on randomized BIP-shaped instances.
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

// matrixStamp is an identity token shared by a Problem and its Clones.
// A Basis's cached factorization (see sparse.go) is only adoptable
// when the constraint matrix is the one it was factored against; the
// stamp makes that check O(1) without fingerprinting coefficients.
type matrixStamp struct{ _ byte }

// Problem is a linear program: minimize Obj·x subject to rows and
// variable bounds. The constraint matrix is stored twice: row-major
// (the dense oracle's and the evaluators' natural layout) and as a CSC
// column store (per-column row-index/value slices, the revised
// simplex's natural layout). AddRow feeds both, so model builders emit
// sparse coefficients straight into CSC with no dense intermediate.
type Problem struct {
	cols int
	obj  []float64
	lo   []float64
	hi   []float64
	rows []row

	// CSC store: colRow[j]/colVal[j] hold the row indices (ascending,
	// AddRow appends monotonically) and values of structural column j.
	colRow [][]int32
	colVal [][]float64
	nnz    int
	mid    *matrixStamp
}

// NewProblem returns a problem with the given number of structural
// variables, all bounded to [0, +∞) with zero objective.
func NewProblem(cols int) *Problem {
	p := &Problem{
		cols:   cols,
		obj:    make([]float64, cols),
		lo:     make([]float64, cols),
		hi:     make([]float64, cols),
		colRow: make([][]int32, cols),
		colVal: make([][]float64, cols),
		mid:    &matrixStamp{},
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
// Coefficients with duplicate columns are summed. Each coefficient is
// appended to its column's CSC slice as well, keeping the column store
// in sync with no transposition pass.
func (p *Problem) AddRow(coefs []Coef, sense Sense, rhs float64) int {
	i := int32(len(p.rows))
	cp := make([]Coef, 0, len(coefs))
	seen := make(map[int]int, len(coefs))
	for _, c := range coefs {
		if c.Col < 0 || c.Col >= p.cols {
			panic(fmt.Sprintf("lp: column %d out of range", c.Col))
		}
		if k, dup := seen[c.Col]; dup {
			cp[k].Val += c.Val
			// The duplicate was already appended to the column store;
			// update it in place (it is this row's tail entry).
			tail := len(p.colVal[c.Col]) - 1
			p.colVal[c.Col][tail] += c.Val
			continue
		}
		seen[c.Col] = len(cp)
		cp = append(cp, c)
		p.colRow[c.Col] = append(p.colRow[c.Col], i)
		p.colVal[c.Col] = append(p.colVal[c.Col], c.Val)
		p.nnz++
	}
	p.rows = append(p.rows, row{coefs: cp, sense: sense, rhs: rhs})
	// The matrix changed: refresh the stamp so factorizations captured
	// against the old shape (or against a Clone that has since
	// diverged) are no longer adoptable.
	p.mid = &matrixStamp{}
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
	// Iters is the number of simplex pivots performed.
	Iters int
	// Basis snapshots the final simplex basis; feed it to SolveFrom on
	// a structurally identical problem (same rows and columns, bounds
	// and objective free to differ) to warm-start the next solve.
	Basis *Basis
	// NumericFallback reports that the sparse path hit an
	// unrecoverable numerical failure mid-solve and the problem was
	// finished by the dense tableau oracle, charged against the
	// iteration budget the sparse attempt had already partly spent.
	// Callers with bounded requests should count these: a flaky basis
	// shows up here, not as silently doubled work.
	NumericFallback bool
	// WarmDowngraded reports that a caller-supplied warm basis was
	// numerically defeated during installation and the solve restarted
	// from the all-slack (cold) basis. Warm-start assertions must check
	// this: a "warm" solve with this flag set measured a cold one.
	WarmDowngraded bool
	// Phase1Dur / Phase2Dur are the wall time spent in each simplex
	// phase, and Refactors counts mid-solve basis refactorizations with
	// FactorDur their wall time (spent *inside* the phases, not in
	// addition to them). A dense rescue charges its time to the same
	// fields, so the totals always describe the whole solve. These feed
	// the per-request span breakdown (queue-wait / lp.phase1 / … ) the
	// daemon's tracing exposes.
	Phase1Dur time.Duration
	Phase2Dur time.Duration
	FactorDur time.Duration
	Refactors int
}

// Basis is a reusable simplex starting point: the basic column of each
// row plus the bound each nonbasic column rests at. Branch-and-bound
// child nodes differ from their parent by one variable bound, and the
// Lagrangian z subproblem changes only its objective between
// iterations, so re-solves that start from the parent basis pivot from
// a near-optimal point instead of running Phase 1 from scratch.
//
// A basis captured by the sparse path additionally carries a snapshot
// of the basis factorization (the sparse LU factors and their pivot
// assignment). Because the basis matrix depends only on which columns
// are basic — never on bounds or the objective — a re-solve on the
// same constraint matrix (a branch-and-bound child after a bound
// flip, the z subproblem after an objective change) adopts the
// factorization outright and installs the warm start in O(nnz), where
// the dense tableau re-pivots in O(m·n) per row.
type Basis struct {
	cols []int  // basic column per row (structural/slack; -1 = row's own slack)
	atHi []bool // nonbasic-at-upper flag per structural/slack column
	fac  *facSnapshot
}

const (
	eps      = 1e-9
	pivotEps = 1e-7
)

// Solve optimizes the problem with the bounded-variable two-phase
// revised simplex method over the sparse column store.
func Solve(p *Problem) Solution {
	return SolveFrom(p, nil)
}

// SolveFrom is Solve starting from a warm basis (nil = cold start).
func SolveFrom(p *Problem, warm *Basis) Solution {
	return solveSparse(p, defaultIterBudget(p), warm)
}

// SolveWithLimit is Solve with an explicit pivot budget (applied to
// each simplex phase, mirroring the dense oracle's accounting).
func SolveWithLimit(p *Problem, maxIters int) Solution {
	return solveSparse(p, maxIters, nil)
}

func defaultIterBudget(p *Problem) int {
	return 20000 + 50*(p.cols+len(p.rows))
}

// SolveDense optimizes the problem with the dense two-phase tableau
// simplex — the reference oracle the sparse path is pinned against.
func SolveDense(p *Problem) Solution {
	return SolveDenseFrom(p, nil)
}

// SolveDenseFrom is SolveDense starting from a warm basis.
func SolveDenseFrom(p *Problem, warm *Basis) Solution {
	return solveFrom(p, defaultIterBudget(p), warm)
}

// SolveDenseWithLimit is SolveDense with an explicit pivot budget.
func SolveDenseWithLimit(p *Problem, maxIters int) Solution {
	return solveFrom(p, maxIters, nil)
}

func solveFrom(p *Problem, maxIters int, warm *Basis) Solution {
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
	obj := 0.0
	for j := 0; j < p.cols; j++ {
		obj += p.obj[j] * x[j]
	}
	return Solution{Status: st, X: x, Obj: obj, Iters: iters1 + iters2, Basis: t.captureBasis(), Phase1Dur: p1, Phase2Dur: p2}
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
		t.basis[i] = col
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

// tableau is the dense simplex working state. Columns are structural
// variables, then one slack per row, then artificials as needed.
type tableau struct {
	p     *Problem
	m     int // rows
	n     int // structural + slack columns
	nArt  int
	a     [][]float64 // m × (n + nArt)
	b     []float64
	lo    []float64 // per column
	hi    []float64
	basis []int     // basic column per row
	atHi  []bool    // nonbasic-at-upper flag per column
	x     []float64 // current value per column (maintained for nonbasic)
}

func newTableau(p *Problem) *tableau {
	m := len(p.rows)
	n := p.cols + m // one slack per row
	t := &tableau{p: p, m: m, n: n}

	t.lo = make([]float64, n)
	t.hi = make([]float64, n)
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
	}

	t.a = make([][]float64, m)
	t.b = make([]float64, m)
	for i, r := range p.rows {
		t.a[i] = make([]float64, n)
		for _, c := range r.coefs {
			t.a[i][c.Col] += c.Val
		}
		t.a[i][p.cols+i] = 1
		t.b[i] = r.rhs
	}

	// Start nonbasic structural variables at their finite bound
	// nearest zero; slacks form the initial basis.
	t.x = make([]float64, n)
	t.atHi = make([]bool, n)
	for j := 0; j < p.cols; j++ {
		switch {
		case !math.IsInf(t.lo[j], 0) && (t.lo[j] >= 0 || math.IsInf(t.hi[j], 0)):
			t.x[j] = t.lo[j]
		case !math.IsInf(t.hi[j], 0):
			t.x[j] = t.hi[j]
			t.atHi[j] = true
		default:
			t.x[j] = 0
		}
	}
	t.basis = make([]int, m)
	for i := 0; i < m; i++ {
		t.basis[i] = p.cols + i
	}
	return t
}

// basicValues computes the implied values of the basic variables given
// the nonbasic variables' positions.
func (t *tableau) basicValues() []float64 {
	v := make([]float64, t.m)
	for i := 0; i < t.m; i++ {
		sum := t.b[i]
		for j := 0; j < t.n+t.nArt; j++ {
			if j == t.basis[i] {
				continue
			}
			if t.x[j] != 0 {
				sum -= t.a[i][j] * t.x[j]
			}
		}
		// Basis is maintained in eliminated form: column of basis[i]
		// is the i-th unit vector, so the basic value is sum directly.
		v[i] = sum
	}
	return v
}

// phase1 establishes a feasible basis by adding artificial variables
// for rows whose slack cannot absorb the right-hand side, then
// minimizing their sum.
func (t *tableau) phase1(maxIters int) (Status, int) {
	// Put the tableau into eliminated (canonical) form: for the
	// initial slack basis the matrix already is. Compute slack values;
	// rows whose slack violates its bounds get an artificial.
	vals := t.basicValues()
	var artRows []int
	for i := 0; i < t.m; i++ {
		j := t.basis[i]
		if vals[i] < t.lo[j]-eps || vals[i] > t.hi[j]+eps {
			artRows = append(artRows, i)
		}
	}
	if len(artRows) == 0 {
		for i, v := range vals {
			t.x[t.basis[i]] = v
		}
		return Optimal, 0
	}

	// Extend the tableau with one artificial per violating row.
	t.nArt = len(artRows)
	total := t.n + t.nArt
	for i := 0; i < t.m; i++ {
		t.a[i] = append(t.a[i], make([]float64, t.nArt)...)
	}
	t.lo = append(t.lo, make([]float64, t.nArt)...)
	t.hi = append(t.hi, make([]float64, t.nArt)...)
	t.x = append(t.x, make([]float64, t.nArt)...)
	t.atHi = append(t.atHi, make([]bool, t.nArt)...)

	phase1Obj := make([]float64, total)
	for k, i := range artRows {
		j := t.n + k
		old := t.basis[i]
		// Pin the old slack at the bound it violated toward, and make
		// the artificial absorb the residual with the right sign.
		resid := vals[i]
		if resid < t.lo[old] {
			t.x[old] = t.lo[old]
			t.atHi[old] = false
			resid -= t.lo[old]
		} else {
			t.x[old] = t.hi[old]
			t.atHi[old] = true
			resid -= t.hi[old]
		}
		if math.IsInf(t.x[old], 0) {
			t.x[old] = 0
		}
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
		t.basis[i] = j
		t.x[j] = resid
		phase1Obj[j] = 1
	}

	st, iters := t.iterate(phase1Obj, maxIters)
	if st == Unbounded {
		// A minimization of nonnegative artificials cannot be
		// unbounded; treat as numeric failure.
		return Infeasible, iters
	}
	if st == IterLimit {
		return IterLimit, iters
	}
	// Check artificials are zero.
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

// iterate runs primal simplex pivots until optimality for the given
// objective.
func (t *tableau) iterate(obj []float64, maxIters int) (Status, int) {
	total := t.n + t.nArt
	// Reduced costs require the objective row in eliminated form:
	// d_j = c_j − c_B · B⁻¹A_j. With the tableau kept eliminated,
	// d_j = c_j − Σ_i c_{basis[i]}·a[i][j].
	iters := 0
	for ; iters < maxIters; iters++ {
		// Compute basic values (cheap: tableau is eliminated, value =
		// b' − Σ nonbasic contributions; we maintain b as eliminated
		// rhs, so track it directly).
		vals := t.basicValues()
		for i, v := range vals {
			t.x[t.basis[i]] = v
		}

		// Pricing: find the entering variable.
		enter := -1
		var enterDir float64 // +1 increase from lo, −1 decrease from hi
		bestScore := eps
		useBland := iters > maxIters/2
		for j := 0; j < total; j++ {
			if t.isBasic(j) || t.lo[j] == t.hi[j] {
				continue
			}
			d := obj[j]
			for i := 0; i < t.m; i++ {
				cb := obj[t.basis[i]]
				if cb != 0 {
					d -= cb * t.a[i][j]
				}
			}
			var score float64
			var dir float64
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
			if useBland {
				enter, enterDir = j, dir
				break
			}
			if score > bestScore {
				bestScore, enter, enterDir = score, j, dir
			}
		}
		if enter == -1 {
			return Optimal, iters
		}

		// Ratio test: how far can the entering variable move?
		limit := math.Inf(1)
		if !math.IsInf(t.hi[enter], 0) && !math.IsInf(t.lo[enter], 0) {
			limit = t.hi[enter] - t.lo[enter] // bound flip distance
		}
		leave := -1
		leaveToHi := false
		for i := 0; i < t.m; i++ {
			coef := t.a[i][enter] * enterDir
			if math.Abs(coef) < pivotEps {
				continue
			}
			bj := t.basis[i]
			v := t.x[bj]
			var room float64
			if coef > 0 {
				// Basic variable decreases toward its lower bound.
				if math.IsInf(t.lo[bj], 0) {
					continue
				}
				room = (v - t.lo[bj]) / coef
				if room < limit-eps {
					limit, leave, leaveToHi = room, i, false
				}
			} else {
				// Basic variable increases toward its upper bound.
				if math.IsInf(t.hi[bj], 0) {
					continue
				}
				room = (v - t.hi[bj]) / coef
				if room < limit-eps {
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

		if leave == -1 {
			// Bound flip: the entering variable moves to its other
			// bound; the basis is unchanged.
			t.atHi[enter] = !t.atHi[enter]
			if t.atHi[enter] {
				t.x[enter] = t.hi[enter]
			} else {
				t.x[enter] = t.lo[enter]
			}
			continue
		}

		// Pivot: entering variable becomes basic at row `leave`.
		out := t.basis[leave]
		t.pivot(leave, enter)
		t.basis[leave] = enter
		t.atHi[out] = leaveToHi
		if leaveToHi {
			t.x[out] = t.hi[out]
		} else {
			t.x[out] = t.lo[out]
		}
		if math.IsInf(t.x[out], 0) {
			t.x[out] = 0
		}
	}
	return IterLimit, iters
}

func (t *tableau) isBasic(j int) bool {
	for _, bj := range t.basis {
		if bj == j {
			return true
		}
	}
	return false
}

// pivot eliminates column `col` from all rows except `prow`, scaling
// the pivot row to make the pivot 1, and updates the eliminated rhs.
func (t *tableau) pivot(prow, col int) {
	pv := t.a[prow][col]
	inv := 1 / pv
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
		for j := range rowI {
			rowI[j] -= f * rowP[j]
		}
		t.b[i] -= f * t.b[prow]
	}
}

// extract returns the structural variable values.
func (t *tableau) extract() []float64 {
	vals := t.basicValues()
	for i, v := range vals {
		t.x[t.basis[i]] = v
	}
	out := make([]float64, t.p.cols)
	copy(out, t.x[:t.p.cols])
	return out
}
