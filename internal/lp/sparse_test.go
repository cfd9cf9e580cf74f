package lp

import (
	"math"
	"testing"
)

// bipShaped is the shared BIP-shaped instance generator (gen_test.go); the
// alias keeps the test and benchmark call sites short.
func bipShaped(seed int64, nz, blocks, sideRows int, fix bool) *Problem {
	return RandomBIPShaped(seed, nz, blocks, sideRows, fix)
}

// TestSparseMatchesDenseOracle pins the revised simplex against the
// dense tableau oracle on ≥1000 randomized BIP-shaped instances:
// statuses must agree exactly, objectives within 1e-6, and the sparse
// basis must round-trip (a warm re-solve from it reproduces the same
// optimum).
func TestSparseMatchesDenseOracle(t *testing.T) {
	const trials = 1000
	optimal, infeasible := 0, 0
	for seed := int64(0); seed < trials; seed++ {
		nz := 3 + int(seed%8)
		blocks := 2 + int(seed%5)
		side := int(seed % 7)
		p := bipShaped(seed, nz, blocks, side, seed%3 == 0)

		sp := Solve(p)
		dn := SolveDense(p)
		if sp.Status != dn.Status {
			t.Fatalf("seed %d: sparse %v vs dense %v", seed, sp.Status, dn.Status)
		}
		switch sp.Status {
		case Optimal:
			optimal++
			tol := 1e-6 * math.Max(1, math.Abs(dn.Obj))
			if math.Abs(sp.Obj-dn.Obj) > tol {
				t.Fatalf("seed %d: sparse obj %v vs dense obj %v", seed, sp.Obj, dn.Obj)
			}
			if !p.Feasible(sp.X, 1e-6) {
				t.Fatalf("seed %d: sparse solution infeasible", seed)
			}
			if sp.Basis == nil {
				t.Fatalf("seed %d: no basis captured", seed)
			}
			if sp.NumericFallback {
				// The pin must exercise the LU path itself, not a
				// silent dense rescue pretending to be it.
				t.Fatalf("seed %d: sparse solve fell back to the dense oracle", seed)
			}
			// Basis round-trip: warm re-solve reproduces the optimum,
			// with the warm basis adopted faithfully.
			re := SolveFrom(p, sp.Basis)
			if re.Status != Optimal || math.Abs(re.Obj-sp.Obj) > tol {
				t.Fatalf("seed %d: basis round-trip %v obj %v (want %v)", seed, re.Status, re.Obj, sp.Obj)
			}
			if re.WarmDowngraded || re.NumericFallback {
				t.Fatalf("seed %d: round-trip degraded (downgrade=%v fallback=%v)", seed, re.WarmDowngraded, re.NumericFallback)
			}
			// And the dense installer accepts the same basis.
			red := SolveDenseFrom(p, sp.Basis)
			if red.Status != Optimal || math.Abs(red.Obj-sp.Obj) > tol {
				t.Fatalf("seed %d: dense install of sparse basis: %v obj %v", seed, red.Status, red.Obj)
			}
		case Infeasible:
			infeasible++
		}
	}
	if optimal < trials/2 {
		t.Fatalf("generator too degenerate: only %d optimal of %d", optimal, trials)
	}
	t.Logf("%d optimal, %d infeasible of %d instances", optimal, infeasible, trials)
}

// TestSparseWarmMatchesDenseOnBranching replays the branch-and-bound
// pattern: fix one binary of a solved instance and require the
// warm-started sparse child (which adopts the parent factorization)
// to agree with a cold dense solve.
func TestSparseWarmMatchesDenseOnBranching(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		p := bipShaped(seed, 4+int(seed%6), 3, int(seed%5), false)
		root := Solve(p)
		if root.Status != Optimal {
			continue
		}
		for j := 0; j < 3; j++ {
			child := p.Clone()
			v := float64(j % 2)
			child.SetBounds(j%p.Cols(), v, v)
			warm := SolveFrom(child, root.Basis)
			cold := SolveDense(child)
			if warm.Status != cold.Status {
				t.Fatalf("seed %d fix %d: warm %v vs dense cold %v", seed, j, warm.Status, cold.Status)
			}
			if warm.Status == Optimal {
				tol := 1e-6 * math.Max(1, math.Abs(cold.Obj))
				if math.Abs(warm.Obj-cold.Obj) > tol {
					t.Fatalf("seed %d fix %d: warm obj %v vs cold %v", seed, j, warm.Obj, cold.Obj)
				}
			}
		}
	}
}

// TestEmptyConstraintSet: no rows at all — the solution is decided by
// bounds alone (and an unbounded objective must be reported as such).
func TestEmptyConstraintSet(t *testing.T) {
	p := NewProblem(3)
	p.SetObj(0, -2)
	p.SetObj(1, 1)
	p.SetObj(2, -1)
	p.SetBounds(0, 0, 4)
	p.SetBounds(1, -1, 5)
	p.SetBounds(2, 2, 2)
	for _, solve := range []func(*Problem) Solution{Solve, SolveDense} {
		s := solve(p)
		if s.Status != Optimal {
			t.Fatalf("status = %v", s.Status)
		}
		want := -2.0*4 + 1*(-1) + -1.0*2
		if math.Abs(s.Obj-want) > 1e-9 {
			t.Fatalf("obj = %v, want %v", s.Obj, want)
		}
	}

	// Unbounded: a free-to-grow variable with negative cost and no rows.
	u := NewProblem(1)
	u.SetObj(0, -1)
	if s := Solve(u); s.Status != Unbounded {
		t.Fatalf("rowless unbounded: %v", s.Status)
	}
	if s := SolveDense(u); s.Status != Unbounded {
		t.Fatalf("rowless unbounded (dense): %v", s.Status)
	}
}

// TestAllFixedBinaries: every variable fixed by lo == hi — the solver
// must simply evaluate the point, or prove infeasibility when the
// fixings violate a row.
func TestAllFixedBinaries(t *testing.T) {
	p := NewProblem(3)
	for j := 0; j < 3; j++ {
		v := float64(j % 2)
		p.SetObj(j, float64(j+1))
		p.SetBounds(j, v, v)
	}
	p.AddRow([]Coef{{0, 1}, {1, 1}, {2, 1}}, LE, 2)
	s := Solve(p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Obj-2) > 1e-9 { // x = (0,1,0)
		t.Fatalf("obj = %v", s.Obj)
	}
	if d := SolveDense(p); d.Status != Optimal || math.Abs(d.Obj-s.Obj) > 1e-9 {
		t.Fatalf("dense disagrees: %v %v", d.Status, d.Obj)
	}

	// Fixings violating a row: infeasible, and both paths agree.
	q := NewProblem(2)
	q.SetBounds(0, 1, 1)
	q.SetBounds(1, 1, 1)
	q.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 1)
	if s := Solve(q); s.Status != Infeasible {
		t.Fatalf("violating fixings: %v", s.Status)
	}
	if s := SolveDense(q); s.Status != Infeasible {
		t.Fatalf("violating fixings (dense): %v", s.Status)
	}
}

// TestInfeasibleAfterWarmInstall: a basis captured from a feasible
// parent is installed into a child whose bounds admit no solution; the
// warm solve must prove infeasibility, not hallucinate feasibility
// from stale state.
func TestInfeasibleAfterWarmInstall(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -2)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 1)
	root := Solve(p)
	if root.Status != Optimal {
		t.Fatalf("root: %v", root.Status)
	}

	child := p.Clone()
	child.SetBounds(0, 1, 1)
	child.SetBounds(1, 1, 1) // x0 + x1 = 2 > 1: infeasible
	warm := SolveFrom(child, root.Basis)
	if warm.Status != Infeasible {
		t.Fatalf("warm install into infeasible child: %v", warm.Status)
	}
	if d := SolveDenseFrom(child, root.Basis); d.Status != Infeasible {
		t.Fatalf("dense warm install: %v", d.Status)
	}

	// Randomized variant over BIP shapes: force a side constraint that
	// contradicts a fixing.
	for seed := int64(0); seed < 60; seed++ {
		bp := bipShaped(seed, 5, 3, 2, false)
		rootB := Solve(bp)
		if rootB.Status != Optimal {
			continue
		}
		bad := bp.Clone()
		bad.AddRow([]Coef{{0, 1}}, GE, 1) // z0 forced on...
		bad.SetBounds(0, 0, 0)            // ...and fixed off
		w := SolveFrom(bad, rootB.Basis)
		d := SolveDense(bad)
		if w.Status != d.Status {
			t.Fatalf("seed %d: warm %v vs dense %v", seed, w.Status, d.Status)
		}
		if w.Status != Infeasible {
			t.Fatalf("seed %d: want infeasible, got %v", seed, w.Status)
		}
	}
}

// TestPivotBudgetExhaustionMidPhase1: an instance that needs phase-1
// repair pivots must report IterLimit when the budget dies before
// feasibility is reached — and must not claim Optimal or Infeasible.
func TestPivotBudgetExhaustionMidPhase1(t *testing.T) {
	// A chain of GE rows forces a nontrivial phase 1.
	p := NewProblem(6)
	for j := 0; j < 6; j++ {
		p.SetObj(j, 1)
		p.SetBounds(j, 0, 10)
	}
	for i := 0; i < 5; i++ {
		p.AddRow([]Coef{{i, 1}, {i + 1, 1}}, GE, 3)
	}
	full := Solve(p)
	if full.Status != Optimal {
		t.Fatalf("full solve: %v", full.Status)
	}
	if full.Iters < 2 {
		t.Skipf("instance too easy to exhaust (%d iters)", full.Iters)
	}
	s := SolveWithLimit(p, 1)
	if s.Status != IterLimit {
		t.Fatalf("budget 1: %v, want iteration-limit", s.Status)
	}
	if d := SolveDenseWithLimit(p, 1); d.Status != IterLimit {
		t.Fatalf("budget 1 (dense): %v", d.Status)
	}
}
