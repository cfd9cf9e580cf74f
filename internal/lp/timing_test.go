package lp

import "testing"

// TestSolutionPhaseTimings: the phase breakdown the daemon's request
// traces consume must be populated — phase 2 ran, so its duration is
// nonzero, and no field can be negative.
func TestSolutionPhaseTimings(t *testing.T) {
	p := NewProblem(30)
	for j := 0; j < 30; j++ {
		p.SetObj(j, float64(-(j%7 + 1)))
		p.SetBounds(j, 0, 1)
	}
	for i := 0; i < 20; i++ {
		var cs []Coef
		for j := i % 5; j < 30; j += 5 {
			cs = append(cs, Coef{j, 1})
		}
		p.AddRow(cs, LE, 2)
	}
	sol := Solve(p)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Phase2Dur <= 0 {
		t.Fatalf("phase-2 time not measured: %+v", sol.Phase2Dur)
	}
	if sol.Phase1Dur < 0 {
		t.Fatalf("negative phase-1 time: %v", sol.Phase1Dur)
	}
}
