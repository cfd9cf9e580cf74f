package lp

import (
	"math"
	"testing"
)

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
	s := Solve(p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	want := -2.0*4 + 1*(-1) + -1.0*2
	if math.Abs(s.Obj-want) > 1e-9 {
		t.Fatalf("obj = %v, want %v", s.Obj, want)
	}

	// Unbounded: a free-to-grow variable with negative cost and no rows.
	u := NewProblem(1)
	u.SetObj(0, -1)
	if s := Solve(u); s.Status != Unbounded {
		t.Fatalf("rowless unbounded: %v", s.Status)
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

	// Fixings violating a row: infeasible.
	q := NewProblem(2)
	q.SetBounds(0, 1, 1)
	q.SetBounds(1, 1, 1)
	q.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 1)
	if s := Solve(q); s.Status != Infeasible {
		t.Fatalf("violating fixings: %v", s.Status)
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
	if warm := SolveFrom(child, root.Basis); warm.Status != Infeasible {
		t.Fatalf("warm install into infeasible child: %v", warm.Status)
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
		if w := SolveFrom(bad, rootB.Basis); w.Status != Infeasible {
			t.Fatalf("seed %d: warm: want infeasible, got %v", seed, w.Status)
		}
		if c := Solve(bad); c.Status != Infeasible {
			t.Fatalf("seed %d: cold: want infeasible, got %v", seed, c.Status)
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
	if s := SolveWithLimit(p, 1); s.Status != IterLimit {
		t.Fatalf("budget 1: %v, want iteration-limit", s.Status)
	}
}

// bealeCycling is Beale's classic cycling instance: every pivot at the
// origin is degenerate, and textbook Dantzig pricing cycles forever.
func bealeCycling() *Problem {
	p := NewProblem(4)
	p.SetObj(0, -0.75)
	p.SetObj(1, 150)
	p.SetObj(2, -0.02)
	p.SetObj(3, 6)
	for j := 0; j < 4; j++ {
		p.SetBounds(j, 0, math.Inf(1))
	}
	p.AddRow([]Coef{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddRow([]Coef{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddRow([]Coef{{2, 1}}, LE, 1)
	return p
}

// TestDegenerateCyclingRegression: the solve must reach Beale's optimum
// (objective −1/20); should Dantzig pricing cycle, the Bland fallback
// after half the pivot budget ends the cycle within it.
func TestDegenerateCyclingRegression(t *testing.T) {
	s := Solve(bealeCycling())
	if s.Status != Optimal || math.Abs(s.Obj-(-0.05)) > 1e-9 {
		t.Fatalf("cycling instance: %v obj %v", s.Status, s.Obj)
	}
}
