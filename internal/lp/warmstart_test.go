package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomLP builds a bounded-feasible random LP.
func randomLP(seed int64, cols, rows int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(cols)
	for j := 0; j < cols; j++ {
		p.SetObj(j, rng.Float64()*10-5)
		p.SetBounds(j, 0, 1)
	}
	for i := 0; i < rows; i++ {
		var coefs []Coef
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.4 {
				coefs = append(coefs, Coef{Col: j, Val: rng.Float64() * 3})
			}
		}
		if len(coefs) == 0 {
			coefs = append(coefs, Coef{Col: rng.Intn(cols), Val: 1})
		}
		p.AddRow(coefs, LE, 1+rng.Float64()*float64(cols)/2)
	}
	return p
}

// TestWarmStartMatchesColdOptimum re-solves perturbed problems from
// the parent basis and requires the warm solve to find the same
// optimum the cold solve does.
func TestWarmStartMatchesColdOptimum(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := randomLP(seed, 20, 12)
		cold := Solve(p)
		if cold.Status != Optimal {
			t.Fatalf("seed %d: cold status %v", seed, cold.Status)
		}
		if cold.Basis == nil {
			t.Fatalf("seed %d: no basis captured", seed)
		}

		// Branch-and-bound-style perturbation: fix one variable to 0 or 1.
		for j := 0; j < 4; j++ {
			child := p.Clone()
			v := float64(j % 2)
			child.SetBounds(j, v, v)

			coldChild := Solve(child)
			warmChild := SolveFrom(child, cold.Basis)
			if coldChild.Status != warmChild.Status {
				t.Fatalf("seed %d fix x%d=%v: status %v vs %v", seed, j, v, coldChild.Status, warmChild.Status)
			}
			if coldChild.Status != Optimal {
				continue
			}
			if math.Abs(coldChild.Obj-warmChild.Obj) > 1e-6*math.Max(1, math.Abs(coldChild.Obj)) {
				t.Fatalf("seed %d fix x%d=%v: warm obj %v != cold obj %v", seed, j, v, warmChild.Obj, coldChild.Obj)
			}
		}

		// Objective-only change (the z-subproblem pattern): the warm
		// re-solve starts at the old optimal basis.
		reobj := p.Clone()
		rng := rand.New(rand.NewSource(seed + 100))
		for j := 0; j < reobj.Cols(); j++ {
			reobj.SetObj(j, rng.Float64()*10-5)
		}
		coldR := Solve(reobj)
		warmR := SolveFrom(reobj, cold.Basis)
		if coldR.Status != Optimal || warmR.Status != Optimal {
			t.Fatalf("seed %d: reobj status %v / %v", seed, coldR.Status, warmR.Status)
		}
		if math.Abs(coldR.Obj-warmR.Obj) > 1e-6*math.Max(1, math.Abs(coldR.Obj)) {
			t.Fatalf("seed %d: reobj warm %v != cold %v", seed, warmR.Obj, coldR.Obj)
		}
	}
}

// TestWarmStartSavesPivots asserts the point of the warm start: across
// a batch of perturbed re-solves, starting from the parent basis must
// strictly reduce total simplex pivots versus cold starts.
func TestWarmStartSavesPivots(t *testing.T) {
	var coldIters, warmIters int
	for seed := int64(1); seed <= 10; seed++ {
		p := randomLP(seed, 24, 14)
		root := Solve(p)
		if root.Status != Optimal {
			continue
		}
		for j := 0; j < 6; j++ {
			child := p.Clone()
			v := float64(j % 2)
			child.SetBounds(j, v, v)
			coldIters += Solve(child).Iters
			warmIters += SolveFrom(child, root.Basis).Iters
		}
	}
	if coldIters == 0 {
		t.Fatal("no feasible instances")
	}
	if warmIters >= coldIters {
		t.Fatalf("warm starts saved no pivots: warm=%d cold=%d", warmIters, coldIters)
	}
	t.Logf("pivots: cold=%d warm=%d (%.1f%% saved)", coldIters, warmIters, 100*(1-float64(warmIters)/float64(coldIters)))
}
