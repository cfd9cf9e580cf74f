package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickSolutionsAreFeasible: property — whenever the solver
// reports Optimal, the returned point satisfies every constraint and
// bound.
func TestQuickSolutionsAreFeasible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		mrows := 1 + r.Intn(5)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, r.Float64()*4-2)
			p.SetBounds(j, 0, 1+r.Float64()*3)
		}
		for i := 0; i < mrows; i++ {
			var coefs []Coef
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					coefs = append(coefs, Coef{Col: j, Val: r.Float64()*4 - 1})
				}
			}
			if len(coefs) == 0 {
				coefs = append(coefs, Coef{Col: 0, Val: 1})
			}
			sense := []Sense{LE, GE, EQ}[r.Intn(3)]
			p.AddRow(coefs, sense, r.Float64()*3)
		}
		s := Solve(p)
		if s.Status != Optimal {
			return true // infeasible/unbounded are legitimate outcomes
		}
		return p.Feasible(s.X, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickObjectiveNotWorseThanVertexSample: property — the solver's
// objective is no worse than any random feasible point's.
func TestQuickObjectiveNotWorseThanVertexSample(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, r.Float64()*4-2)
			p.SetBounds(j, 0, 1)
		}
		var coefs []Coef
		for j := 0; j < n; j++ {
			coefs = append(coefs, Coef{Col: j, Val: 0.5 + r.Float64()})
		}
		p.AddRow(coefs, LE, float64(n)/2)
		s := Solve(p)
		if s.Status != Optimal {
			return true
		}
		// Sample random feasible points; none may beat the optimum.
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = r.Float64()
			}
			if !p.Feasible(x, 0) {
				continue
			}
			if p.Objective(x) < s.Obj-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneIndependence: bound edits on a clone must not leak back.
func TestCloneIndependence(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddRow([]Coef{{Col: 0, Val: 1}, {Col: 1, Val: 1}}, LE, 2)
	cp := p.Clone()
	cp.SetBounds(0, 0, 0) // fix to zero on the clone only
	s1 := Solve(p)
	s2 := Solve(cp)
	if math.Abs(s1.X[0]-1) > 1e-9 {
		t.Fatalf("original affected by clone edit: %v", s1.X)
	}
	if math.Abs(s2.X[0]) > 1e-9 {
		t.Fatalf("clone bound ignored: %v", s2.X)
	}
}

// TestCloneAddRowNoAliasing: appending rows to both a problem and its
// clone must not let either write into the backing array of the row
// list the other reads (it is shared but capacity-clipped on Clone).
func TestCloneAddRowNoAliasing(t *testing.T) {
	p := NewProblem(1)
	for i := 0; i < 3; i++ { // leave spare capacity in the row list
		p.AddRow([]Coef{{Col: 0, Val: float64(i + 1)}}, LE, 10)
	}
	q := p.Clone()
	p.AddRow([]Coef{{Col: 0, Val: 7}}, LE, 7)
	q.AddRow([]Coef{{Col: 0, Val: -9}}, GE, -9)
	if r := p.rows[3]; r.sense != LE || r.rhs != 7 || r.coefs[0].Val != 7 {
		t.Fatalf("clone append corrupted parent row 3: %+v", r)
	}
	if r := q.rows[3]; r.sense != GE || r.rhs != -9 || r.coefs[0].Val != -9 {
		t.Fatalf("parent append corrupted clone row 3: %+v", r)
	}
}

// TestRowAccessors covers rowActivity, including summed duplicates.
func TestRowAccessors(t *testing.T) {
	p := NewProblem(2)
	i := p.AddRow([]Coef{{Col: 0, Val: 2}, {Col: 1, Val: 3}, {Col: 0, Val: 1}}, GE, 5)
	if act := p.rowActivity(i, []float64{1, 1}); math.Abs(act-6) > 1e-12 {
		t.Fatalf("activity = %v", act)
	}
}

// TestOutOfRangeColumnPanics: misuse is a programming error.
func TestOutOfRangeColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := NewProblem(1)
	p.AddRow([]Coef{{Col: 5, Val: 1}}, LE, 1)
}
