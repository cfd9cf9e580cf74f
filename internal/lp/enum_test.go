package lp

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// tinyLP draws an LP small enough to solve by enumerating its basic
// solutions: up to 5 structurals with finite bounds (some fixed, some
// with an empty box) and up to 3 rows of mixed sense, each row at its
// own coefficient magnitude between 1e-3 and 1e9 — the spread of a
// byte-sized budget row beside unit count rows.
func tinyLP(r *rand.Rand) *Problem {
	n := 1 + r.Intn(5)
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObj(j, r.Float64()*4-2)
		lo := r.Float64()*4 - 3
		switch u := r.Float64(); {
		case u < 0.15:
			p.SetBounds(j, lo, lo)
		case u < 0.2:
			p.SetBounds(j, lo, lo-0.1-r.Float64())
		default:
			p.SetBounds(j, lo, lo+r.Float64()*4)
		}
	}
	for i, m := 0, r.Intn(4); i < m; i++ {
		mag := math.Pow(10, -3+12*r.Float64())
		var coefs []Coef
		for j := 0; j < n; j++ {
			if r.Float64() < 0.7 {
				coefs = append(coefs, Coef{Col: j, Val: mag * (r.Float64()*2 - 1)})
			}
		}
		p.AddRow(coefs, []Sense{LE, GE, EQ}[r.Intn(3)], mag*(r.Float64()*4-2))
	}
	return p
}

// enumerate solves p by brute force, sharing no code with the simplex:
// every choice of m basic columns among the structurals and slacks,
// every placement of the nonbasic columns at a finite bound, an m×m
// Gaussian elimination for the basic values, and the cheapest point
// whose every column lies within tol of its bounds. Rows are divided
// by their largest coefficient magnitude first so one tol suits all of
// them. It reports whether any basic solution is feasible.
func enumerate(p *Problem, tol float64) (bool, float64) {
	n, m := p.cols, len(p.rows)
	cols := n + m
	a := make([][]float64, m)
	b := make([]float64, m)
	lo := append(append([]float64(nil), p.lo...), make([]float64, m)...)
	hi := append(append([]float64(nil), p.hi...), make([]float64, m)...)
	for i, r := range p.rows {
		a[i] = make([]float64, cols)
		for _, c := range r.coefs {
			a[i][c.Col] += c.Val
		}
		s := 0.0
		for _, v := range a[i][:n] {
			s = math.Max(s, math.Abs(v))
		}
		if s == 0 {
			s = 1
		}
		for j := range a[i][:n] {
			a[i][j] /= s
		}
		a[i][n+i] = 1
		b[i] = r.rhs / s
		switch r.sense {
		case LE:
			hi[n+i] = math.Inf(1)
		case GE:
			lo[n+i] = math.Inf(-1)
		}
	}

	found, best := false, math.Inf(1)
	x := make([]float64, cols)
	for mask := 0; mask < 1<<cols; mask++ {
		if bits.OnesCount(uint(mask)) != m {
			continue
		}
		var basic, nonbasic []int
		for j := 0; j < cols; j++ {
			if mask&(1<<j) != 0 {
				basic = append(basic, j)
			} else {
				nonbasic = append(nonbasic, j)
			}
		}
		// Each nonbasic column rests at one of its finite bounds.
		var rests [][]float64
		for _, j := range nonbasic {
			var r []float64
			for _, v := range []float64{lo[j], hi[j]} {
				if !math.IsInf(v, 0) && (len(r) == 0 || r[0] != v) {
					r = append(r, v)
				}
			}
			rests = append(rests, r)
		}
		pick := make([]int, len(nonbasic))
		for {
			for k, j := range nonbasic {
				x[j] = rests[k][pick[k]]
			}
			if solveBasic(a, b, basic, nonbasic, x) {
				ok := true
				for j := 0; j < cols; j++ {
					if x[j] < lo[j]-tol || x[j] > hi[j]+tol {
						ok = false
						break
					}
				}
				if ok {
					found = true
					best = math.Min(best, p.Objective(x))
				}
			}
			k := 0
			for ; k < len(pick); k++ {
				if pick[k]++; pick[k] < len(rests[k]) {
					break
				}
				pick[k] = 0
			}
			if k == len(pick) {
				break
			}
		}
	}
	return found, best
}

// solveBasic sets x on the basic columns to the solution of
// B·x_B = b − N·x_N by Gaussian elimination with partial pivoting. It
// reports false for a singular basis.
func solveBasic(a [][]float64, b []float64, basic, nonbasic []int, x []float64) bool {
	m := len(basic)
	aug := make([][]float64, m)
	for i := range aug {
		aug[i] = make([]float64, m+1)
		for k, j := range basic {
			aug[i][k] = a[i][j]
		}
		aug[i][m] = b[i]
		for _, j := range nonbasic {
			aug[i][m] -= a[i][j] * x[j]
		}
	}
	for c := 0; c < m; c++ {
		pr := c
		for i := c + 1; i < m; i++ {
			if math.Abs(aug[i][c]) > math.Abs(aug[pr][c]) {
				pr = i
			}
		}
		if math.Abs(aug[pr][c]) < 1e-10 {
			return false
		}
		aug[c], aug[pr] = aug[pr], aug[c]
		for i := 0; i < m; i++ {
			if i == c {
				continue
			}
			f := aug[i][c] / aug[c][c]
			for k := c; k <= m; k++ {
				aug[i][k] -= f * aug[c][k]
			}
		}
	}
	for k, j := range basic {
		x[j] = aug[k][m] / aug[k][k]
	}
	return true
}

// checkAgainstEnumeration compares Solve's status and objective with
// enumerate's. Every column is boxed, so the LP is either infeasible or
// has an optimal vertex. It reports false, checking nothing, when the
// instance is feasible only within a loose tolerance: there both
// answers are right.
func checkAgainstEnumeration(t *testing.T, p *Problem) bool {
	t.Helper()
	ok, want := enumerate(p, 1e-9)
	if okLoose, _ := enumerate(p, 1e-6); ok != okLoose {
		return false
	}
	s := Solve(p)
	if !ok {
		if s.Status != Infeasible {
			t.Fatalf("enumeration finds no feasible vertex; Solve says %v (obj %v)", s.Status, s.Obj)
		}
		return true
	}
	if s.Status != Optimal {
		t.Fatalf("enumeration optimum %v; Solve says %v", want, s.Status)
	}
	if math.Abs(s.Obj-want) > 1e-7*math.Max(1, math.Abs(want)) {
		t.Fatalf("Solve obj %v, enumeration optimum %v", s.Obj, want)
	}
	return true
}

// TestSolveMatchesVertexEnumeration pins Solve against exhaustive
// enumeration of basic solutions on random tiny LPs.
func TestSolveMatchesVertexEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const trials = 3000
	checked := 0
	for trial := 0; trial < trials; trial++ {
		if checkAgainstEnumeration(t, tinyLP(r)) {
			checked++
		}
	}
	if checked < trials*99/100 {
		t.Fatalf("only %d of %d instances were unambiguous", checked, trials)
	}
}

// FuzzSolveMatchesEnumeration is TestSolveMatchesVertexEnumeration
// over fuzzer-chosen seeds.
func FuzzSolveMatchesEnumeration(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(7))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAgainstEnumeration(t, tinyLP(rand.New(rand.NewSource(seed))))
	})
}
